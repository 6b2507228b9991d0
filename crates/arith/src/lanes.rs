//! Outlier band lanes: the per-tile outlier correction of the OwL-P GEMM.
//!
//! The microkernel sums every product on the shared frame `2^f0` as if
//! both operands were normal. For output element `(i, j)` the exact sum
//! differs from that by
//!
//! ```text
//!   Σ_{kk ∈ R_i} Δa·b  +  Σ_{kk ∈ C_j} a·Δb  +  Σ_{kk ∈ R_i ∩ C_j} Δa·Δb
//! ```
//!
//! where `R_i` / `C_j` are the tagged depths of activation row `i` and
//! weight column `j`, and `Δ = s·(2^d − 1)` is a tagged entry's delta
//! (see [`owlp_format::bands`], which stores the deltas as `i32` band
//! coefficients). For one R×NR register tile (`R ≤ MR` live rows) the
//! first sum is, per row band, an `NR`-lane dot of coefficients against
//! panel rows; the second is, per column band, an `R`-lane dot of
//! coefficients against the activation column gathered from the
//! row-major sval plane; the third — the exact residual of depths tagged
//! on both sides — is found from the column's count region against each
//! row's depth mask and summed at frame `f0 + b0a + b0b` (plus up to
//! three products per depth whose delta is split across a far band).
//! Each element then folds its kernel window, its lane sums and its
//! residual into one [`WindowAcc`] sized from those terms' own frames and
//! magnitudes, or into a [`KulischAcc`] when [`WindowAcc::for_span`]
//! refuses the span, and rounds once.
//!
//! The same pass counts, per element, the nonzero tagged products the PE's
//! bypass path would carry: row-side records against nonzero panel words,
//! column-side records against nonzero activation words, minus the depths
//! counted twice.

use crate::kulisch::KulischAcc;
use crate::microkernel::{self, KernelTier, MR, NR};
use crate::window::WindowAcc;
use owlp_format::bands::BandLine;
use owlp_format::{OutlierBands, PackedOperands, PackedPanels};
use std::cell::Cell;

/// Per-call index over the activation rows' count regions: a `k`-bit
/// depth mask per row with per-word prefix ranks, so a depth finds its row
/// record in O(1). The words of an MR-row tile interleave (`[tile][word]
/// [row]`), so one depth's bits for the whole tile share a cache line.
/// `O(tags + m·k/64)` words — no `m×k` plane.
#[derive(Default)]
struct RowIndex {
    words: usize,
    mask: Vec<u64>,
    rank: Vec<u32>,
}

impl RowIndex {
    /// Rebuilds the index over `rows`, the band tables of an `m×k`
    /// activation, reusing its buffers.
    fn rebuild(&mut self, rows: &OutlierBands, m: usize, k: usize) {
        let words = k.div_ceil(64).max(1);
        self.words = words;
        self.mask.clear();
        self.rank.clear();
        if rows.is_empty() {
            // No tagged row: empty planes, and `tile_rows` answers 0.
            return;
        }
        let len = m.div_ceil(MR) * words * MR;
        self.mask.resize(len, 0);
        self.rank.resize(len, 0);
        for i in 0..m {
            for &kk in rows.count_depths(&rows.line(i)) {
                self.mask[Self::at(words, i, kk as usize)] |= 1u64 << (kk % 64);
            }
        }
        for i in 0..m {
            let mut acc = 0u32;
            for w in 0..words {
                let x = Self::at(words, i, w * 64);
                self.rank[x] = acc;
                acc += self.mask[x].count_ones();
            }
        }
    }

    /// Slot of row `i`'s word holding depth `kk`.
    #[inline]
    fn at(words: usize, i: usize, kk: usize) -> usize {
        ((i / MR) * words + kk / 64) * MR + i % MR
    }

    /// Bit `r` set for each row `ib + r` of the tile at `ib` that tags
    /// `kk` (rows past `m` have empty masks).
    #[inline]
    fn tile_rows(&self, ib: usize, kk: usize) -> u32 {
        if self.mask.is_empty() {
            return 0;
        }
        let base = Self::at(self.words, ib, kk);
        let bit = kk % 64;
        let mut rows = 0u32;
        for (r, w) in self.mask[base..base + MR].iter().enumerate() {
            rows |= ((w >> bit) as u32 & 1) << r;
        }
        rows
    }

    /// Rank of `kk` among row `i`'s tagged depths (row `i` tags `kk`).
    #[inline]
    fn rank(&self, i: usize, kk: usize) -> usize {
        let x = Self::at(self.words, i, kk);
        let below = self.mask[x] & ((1u64 << (kk % 64)) - 1);
        self.rank[x] as usize + below.count_ones() as usize
    }
}

/// Operands of at most this many elements — one decode token's attention
/// head, say — are planned per call on buffers the calling thread keeps
/// between calls: their tables cost less to build than to allocate. A
/// larger activation allocates its plan per call, and a larger weight
/// memoises its column tables on its panels.
const SMALL_ELEMS: usize = 512;

thread_local! {
    static KEPT_PLAN: Cell<Option<CallPlan>> = const { Cell::new(None) };
    static KEPT_TILE: Cell<Option<TileScratch>> = const { Cell::new(None) };
}

/// The tables one GEMM call builds for itself: the activation's row band
/// tables and their depth index, and the column band tables of a small
/// weight (see [`SMALL_ELEMS`]).
#[derive(Default)]
pub(crate) struct CallPlan {
    rows: OutlierBands,
    index: RowIndex,
    cols: OutlierBands,
}

impl CallPlan {
    /// The call's tables for an `m×k` activation `a` against the weight
    /// `b` packed into `panels`.
    pub(crate) fn new(
        a: &PackedOperands,
        m: usize,
        k: usize,
        b: &PackedOperands,
        panels: &PackedPanels,
    ) -> Self {
        // Only a small activation's call uses (and refills) the kept
        // buffers, so a large call in between leaves them in place.
        let mut plan = if m * k <= SMALL_ELEMS {
            KEPT_PLAN.take().unwrap_or_default()
        } else {
            Self::default()
        };
        plan.rows.rebuild_rows(a, m, k);
        plan.index.rebuild(&plan.rows, m, k);
        if small_weight(panels) {
            plan.cols.rebuild_columns(b, panels);
        }
        plan
    }

    /// The full outlier plan of the call: these tables, plus the weight's
    /// memoised column tables when it is not small.
    pub(crate) fn plan<'a>(
        &'a self,
        b: &PackedOperands,
        panels: &'a PackedPanels,
        a_sval: &'a [i16],
        k: usize,
        tier: KernelTier,
    ) -> Plan<'a> {
        Plan {
            rows: &self.rows,
            index: &self.index,
            cols: if small_weight(panels) {
                &self.cols
            } else {
                panels.column_bands(b)
            },
            a_sval,
            k,
            tier,
        }
    }

    /// Ends the call of an `m×k` activation, keeping a small activation's
    /// buffers for the thread's next call.
    pub(crate) fn finish(self, m: usize, k: usize) {
        if m * k <= SMALL_ELEMS {
            KEPT_PLAN.set(Some(self));
        }
    }
}

/// Whether the weight behind `panels` is small enough to plan per call.
fn small_weight(panels: &PackedPanels) -> bool {
    panels.k() * panels.n() <= SMALL_ELEMS
}

/// One GEMM call's outlier plan: both sides' band tables and the row
/// index.
pub(crate) struct Plan<'a> {
    rows: &'a OutlierBands,
    index: &'a RowIndex,
    cols: &'a OutlierBands,
    a_sval: &'a [i16],
    k: usize,
    /// Kernel tier of the lane dots, resolved before the fan-out.
    tier: KernelTier,
}

/// Reusable per-chunk buffers of [`Plan::correct_tile`], kept per thread
/// between chunks (their size follows a tile's band count, not the GEMM's).
#[derive(Default)]
pub(crate) struct TileScratch {
    row_lanes: Vec<[i64; NR]>,
    col_lanes: Vec<[i64; MR]>,
    /// Residual depths with a split side: column record and row bits.
    hits: Vec<(u32, u8)>,
    /// One element's exact terms `(value, frame)`.
    terms: Vec<(i128, i32)>,
}

impl TileScratch {
    /// This thread's kept buffers, or new ones.
    pub(crate) fn take() -> Self {
        KEPT_TILE.take().unwrap_or_default()
    }

    /// Keeps the buffers for this thread's next chunk.
    pub(crate) fn keep(self) {
        KEPT_TILE.set(Some(self));
    }
}

/// One element's corrected value and its outlier-product count.
pub(crate) struct Corrected {
    pub(crate) value: f32,
    pub(crate) routed: usize,
}

impl Plan<'_> {
    /// Corrects the tile of rows `ib..ib + wins.len()` (at most [`MR`],
    /// starting on a multiple of it), columns `jb..jb+nr`, whose kernel
    /// windows are `wins` and whose weight panel is `panel`, calling
    /// `emit(r, c, corrected)` once per element.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn correct_tile(
        &self,
        scratch: &mut TileScratch,
        wins: &[[WindowAcc; NR]],
        ib: usize,
        jb: usize,
        nr: usize,
        panel: &[i16],
        mut emit: impl FnMut(usize, usize, Corrected),
    ) {
        let mr = wins.len();
        debug_assert!((1..=MR).contains(&mr) && ib.is_multiple_of(MR));
        let tagged = |t: &OutlierBands, lines: std::ops::Range<usize>| {
            !t.is_empty() && lines.into_iter().any(|l| t.line(l).count > 0)
        };
        if tagged(self.rows, ib..ib + mr) || tagged(self.cols, jb..jb + nr) {
            match mr {
                1 => self.correct_tagged_tile::<1>(scratch, wins, ib, jb, nr, panel, emit),
                2 => self.correct_tagged_tile::<2>(scratch, wins, ib, jb, nr, panel, emit),
                3 => self.correct_tagged_tile::<3>(scratch, wins, ib, jb, nr, panel, emit),
                _ => self.correct_tagged_tile::<MR>(scratch, wins, ib, jb, nr, panel, emit),
            }
            return;
        }
        // No tagged entry touches this tile: the windows hold the exact
        // sums.
        for c in 0..nr {
            for (r, wins_row) in wins.iter().enumerate() {
                let value = wins_row[c].round_to_f32();
                emit(r, c, Corrected { value, routed: 0 });
            }
        }
    }

    /// [`Plan::correct_tile`] of an `R`-row tile some tagged entry touches
    /// — kept out of line so the untagged tiles' check and rounding stay
    /// inline. The column bands gather, multiply and count only the `R`
    /// live rows.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn correct_tagged_tile<const R: usize>(
        &self,
        scratch: &mut TileScratch,
        wins: &[[WindowAcc; NR]],
        ib: usize,
        jb: usize,
        nr: usize,
        panel: &[i16],
        mut emit: impl FnMut(usize, usize, Corrected),
    ) {
        let (rows, cols, k) = (self.rows, self.cols, self.k);
        let lines_a: [BandLine; R] = std::array::from_fn(|r| rows.line(ib + r));
        let lines_b: [BandLine; NR] = std::array::from_fn(|c| cols.line(jb + c.min(nr - 1)));
        let a_rows: [&[i16]; R] =
            std::array::from_fn(|r| &self.a_sval[(ib + r) * k..(ib + r + 1) * k]);
        let mut cnt = [[0u32; NR]; R];
        // Row bands: NR-lane dots of coefficients against panel rows.
        let TileScratch {
            row_lanes,
            col_lanes,
            hits,
            terms,
        } = scratch;
        row_lanes.clear();
        let mut row_at = [0usize; R];
        for (r, la) in lines_a.iter().enumerate() {
            row_at[r] = row_lanes.len();
            let count_end = la.rec + la.count;
            for band in rows.bands(la) {
                let counts = (band.start < count_end).then_some(&mut cnt[r]);
                row_lanes.push(microkernel::band_dot_with(
                    self.tier,
                    rows.depths(band),
                    rows.coefs(band),
                    panel,
                    counts,
                ));
            }
        }
        // Column bands: R-lane dots of coefficients against the gathered
        // activation column (lanes past `R` stay 0). A count-region depth
        // some tile row also tags adds that row's residual `ca·cb` (frame
        // `f0 + b0a + b0b`) on the spot; depths where either side is split
        // are kept in `hits` (with their row bits) for the far-band halves.
        col_lanes.clear();
        hits.clear();
        let mut both = [[0u32; NR]; R];
        let mut common = [[0i128; NR]; R];
        let mut col_at = [0usize; NR];
        let mut hit_at = [0usize; NR + 1];
        for (c, lb) in lines_b.iter().enumerate().take(nr) {
            col_at[c] = col_lanes.len();
            hit_at[c] = hits.len();
            let count_end = lb.rec + lb.count;
            for band in cols.bands(lb) {
                let mut lane = [0i64; MR];
                let counting = band.start < count_end;
                for (x, (&kk, &cf)) in cols.depths(band).iter().zip(cols.coefs(band)).enumerate() {
                    let kk = kk as usize;
                    let av: [i16; R] = std::array::from_fn(|r| a_rows[r][kk]);
                    for r in 0..R {
                        lane[r] += i64::from(cf) * i64::from(av[r]);
                    }
                    if !counting {
                        continue;
                    }
                    for r in 0..R {
                        cnt[r][c] += u32::from(av[r] != 0);
                    }
                    // Rows past `m` have empty masks, so only live rows
                    // answer.
                    let mut tagged = self.index.tile_rows(ib, kk);
                    debug_assert!(tagged >> R == 0);
                    if tagged == 0 {
                        continue;
                    }
                    let rec = band.start + x as u32;
                    let db = cols.record(rec as usize).2;
                    let mut split_rows = 0u8;
                    while tagged != 0 {
                        let r = tagged.trailing_zeros() as usize;
                        tagged &= tagged - 1;
                        let la = &lines_a[r];
                        let y = self.index.rank(ib + r, kk);
                        let (_, ca, da) = rows.record(la.rec as usize + y);
                        both[r][c] += 1;
                        common[r][c] += i128::from(i64::from(ca) * i64::from(cf));
                        if la.is_split(da) || lb.is_split(db) {
                            split_rows |= 1 << r;
                        }
                    }
                    if split_rows != 0 {
                        hits.push((rec, split_rows));
                    }
                }
                col_lanes.push(lane);
            }
        }
        hit_at[nr] = hits.len();
        for (c, lb) in lines_b.iter().enumerate().take(nr) {
            for (r, la) in lines_a.iter().enumerate() {
                let win = wins[r][c];
                let routed = (cnt[r][c] - both[r][c]) as usize;
                if routed == 0 {
                    // Every tagged product is zero (or there is none): the
                    // kernel window already holds the exact sum.
                    emit(
                        r,
                        c,
                        Corrected {
                            value: win.round_to_f32(),
                            routed,
                        },
                    );
                    continue;
                }
                let f0 = win.frame();
                terms.clear();
                terms.push((win.raw(), f0));
                for (b, band) in rows.bands(la).iter().enumerate() {
                    let lane = row_lanes[row_at[r] + b][c];
                    terms.push((i128::from(lane), f0 + i32::from(band.off)));
                }
                for (b, band) in cols.bands(lb).iter().enumerate() {
                    let lane = col_lanes[col_at[c] + b][r];
                    terms.push((i128::from(lane), f0 + i32::from(band.off)));
                }
                let (b0a, b0b) = (i32::from(la.b0), i32::from(lb.b0));
                terms.push((common[r][c], f0 + b0a + b0b));
                // Far-band halves of split depths: Δ = c·2^b0 + [split]
                // s·2^d per side, so Δa·Δb adds up to three more products.
                for &(rec, split_rows) in &hits[hit_at[c]..hit_at[c + 1]] {
                    if split_rows >> r & 1 == 0 {
                        continue;
                    }
                    let (kk, cb, db) = cols.record(rec as usize);
                    let kk = kk as usize;
                    let y = self.index.rank(ib + r, kk);
                    let (_, ca, da) = rows.record(la.rec as usize + y);
                    let (sa, sb) = (a_rows[r][kk], panel[kk * NR + c]);
                    let (fa, fb) = (la.is_split(da), lb.is_split(db));
                    let (da, db) = (i32::from(da), i32::from(db));
                    if fb {
                        terms.push((i128::from(ca) * i128::from(sb), f0 + b0a + db));
                    }
                    if fa {
                        terms.push((i128::from(sa) * i128::from(cb), f0 + da + b0b));
                    }
                    if fa && fb {
                        terms.push((i128::from(sa) * i128::from(sb), f0 + da + db));
                    }
                }
                emit(
                    r,
                    c,
                    Corrected {
                        value: exact_sum(terms),
                        routed,
                    },
                );
            }
        }
    }
}

/// The correctly rounded `f32` of `Σ v·2^frame` over `terms`: one
/// [`WindowAcc`] sized from the terms' own frames and magnitudes, or a
/// [`KulischAcc`] when [`WindowAcc::for_span`] refuses the span.
fn exact_sum(terms: &[(i128, i32)]) -> f32 {
    let nonzero = || terms.iter().filter(|t| t.0 != 0);
    let (mut lo, mut hi) = (i32::MAX, i32::MIN);
    for &(v, frame) in nonzero() {
        lo = lo.min(frame);
        hi = hi.max(frame + 128 - v.unsigned_abs().leading_zeros() as i32);
    }
    if lo > hi {
        return 0.0;
    }
    match WindowAcc::for_span(lo, hi, terms.len() as u64) {
        Some(mut w) => {
            for &(v, frame) in nonzero() {
                w.add_wide(v, frame);
            }
            w.round_to_f32()
        }
        None => {
            let mut acc = KulischAcc::new();
            for &(v, frame) in nonzero() {
                acc.add_wide(v, frame);
            }
            acc.round_to_f32()
        }
    }
}
