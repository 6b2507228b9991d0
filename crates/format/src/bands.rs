//! Outlier band tables: the per-line plan of the GEMM's outlier correction.
//!
//! The `owlp-arith` microkernel multiplies every operand as if it were a
//! normal value: an outlier's folded significand `s` enters the shared
//! frame `2^f0` unchanged. A tagged entry whose exponent sits `d` steps
//! from its tensor's shared exponent really contributes `s·2^d` there, so
//! the kernel's sum is off by the entry's **delta** `Δ = s·(2^d − 1)`
//! times the other operand. This module turns those deltas into `i32`
//! **coefficients** grouped into **bands**: runs of coefficients that share
//! one frame offset `off` (the value is `coef·2^off` on the kernel frame),
//! laid out per *line* — an activation row or a weight column — so the
//! correction becomes a handful of integer lane sums per register tile
//! instead of a walk over each output element's tags.
//!
//! Each line's records come in two regions:
//!
//! * the **count region** — one record per tagged entry with a nonzero
//!   sval, in depth order, on the line's base offset `b0 ≤ 0` (its lowest
//!   offset, raised as far as the base band needs to hold offset 0). An
//!   entry whose offset lies in the base band's reach `[b0, reach]`
//!   carries its whole delta, `s·(2^(d−b0) − 2^(−b0))`; one outside it
//!   carries only the `−s` half, `−s·2^(−b0)`, and is *split*;
//! * **far bands** — the `+s·2^d` half of every split entry, grouped by
//!   offset, each band based on an offset one of its entries has.
//!
//! **Exactness bounds.** A band of widest `|s| < 2^sbits` spans at most
//! `31 − sbits` offsets, so every coefficient is below `2^31` for *any*
//! `i16` sval (decoded outliers are ±8-bit; fault-injected planes need not
//! be). A band holds at most [`BAND_MAX_RECORDS`] records, so a lane sum of
//! coefficients times `i16` operands stays below `2^16·2^31·2^15 = 2^62` at
//! any depth. No band offset lies below the line's lowest entry offset
//! (or 0), so no frame the correction produces lies below a real product
//! frame — never below the Kulisch register's LSB.
//!
//! Weight-side tables are built once per weight and memoised on its
//! [`PackedPanels`] (the GEMM rebuilds a weight of a few hundred elements
//! per call instead); activation-side tables are rebuilt per call in
//! `O(tags + lines)`, into buffers a caller can keep between calls.

use crate::packed::{PackedOperands, PackedPanels, PANEL_NR};
use std::ops::Range;

/// Most records one band holds — the lane-sum bound of the module docs.
pub const BAND_MAX_RECORDS: usize = 1 << 16;

/// One band: records `start..end` of the table, valued `coef·2^off` on the
/// kernel frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Band {
    /// First record.
    pub start: u32,
    /// One past the last record.
    pub end: u32,
    /// Frame offset from the kernel frame.
    pub off: i16,
}

/// One line's slice of the table: its count region, its bands and the
/// reach of its base band. The default is an empty line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BandLine {
    /// First record of the count region.
    pub rec: u32,
    /// Records in the count region (tagged entries with a nonzero sval).
    pub count: u32,
    /// First band.
    pub band_lo: u32,
    /// One past the last band.
    pub band_hi: u32,
    /// Base offset of the count region (`≤ 0`).
    pub b0: i16,
    /// Largest offset whose delta fits whole in the count region.
    pub reach: i16,
}

impl BandLine {
    /// Whether an entry at offset `d` is split across a far band.
    #[inline]
    pub fn is_split(&self, d: i16) -> bool {
        d < self.b0 || d > self.reach
    }
}

/// Per-line outlier band tables of one operand (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutlierBands {
    lines: Vec<BandLine>,
    bands: Vec<Band>,
    kk: Vec<u32>,
    coef: Vec<i32>,
    d: Vec<i16>,
    scratch: Scratch,
}

/// Transient buffers of a table build, left empty between builds so a
/// rebuilt table reuses them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Scratch {
    /// Per-line entry offsets of a column build.
    start: Vec<u32>,
    /// Entries grouped by line, of a column build.
    ents: Vec<Entry>,
    /// The lines of a column build that have entries.
    nonempty: Vec<u32>,
    /// The split entries of the line being built.
    far: Vec<Entry>,
}

/// One tagged entry of a line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry {
    kk: u32,
    s: i16,
    d: i16,
}

impl Entry {
    /// The entry at depth `kk` with sval `s` and stored exponent `exp`,
    /// offset from the tensor's `shared` exponent after the PE's
    /// subnormal-outlier clamp `max(exp, 1)`.
    fn new(kk: u32, s: i16, exp: u8, shared: u8) -> Self {
        let d = (i32::from(exp.max(1)) - i32::from(shared)) as i16;
        Entry { kk, s, d }
    }
}

/// A line's plan: base `b0`, base reach `w0`, and how many records and
/// bands its tables take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinePlan {
    b0: i32,
    w0: i32,
    records: usize,
    bands: usize,
}

/// Plans a line from its entries `line`, leaving its split entries in
/// `far` (see [`split_entries`]). The base band reaches `31 − sbits`
/// offsets and must hold offset 0, every entry's `−s` half, so `b0` is the
/// lowest live offset raised to `−w0` and capped at 0: never below a real
/// product frame.
fn plan_line(line: impl Iterator<Item = Entry> + Clone, far: &mut Vec<Entry>) -> LinePlan {
    let live = || line.clone().filter(|e| e.s != 0);
    let (mut smax, mut lo, mut count) = (0u16, i32::MAX, 0usize);
    for e in live() {
        smax = smax.max(e.s.unsigned_abs());
        lo = lo.min(i32::from(e.d));
        count += 1;
    }
    let w0 = 31 - bits(u64::from(smax));
    let b0 = lo.max(-w0).min(0);
    split_entries(line, b0, b0 + w0, far);
    let mut bands = count.div_ceil(BAND_MAX_RECORDS);
    far_bands(far, |_, _| bands += 1);
    LinePlan {
        b0,
        w0,
        records: count + far.len(),
        bands,
    }
}

/// Collects into `far` the live entries of `line` outside the base band
/// `[b0, reach]`, sorted by offset then depth.
fn split_entries(line: impl Iterator<Item = Entry>, b0: i32, reach: i32, far: &mut Vec<Entry>) {
    far.clear();
    far.extend(line.filter(|e| e.s != 0 && !(b0..=reach).contains(&i32::from(e.d))));
    far.sort_unstable_by_key(|e| (e.d, e.kk));
}

/// Groups split entries `far`, sorted by offset then depth, into far
/// bands: each based on its first entry's offset and greedily widened
/// while the widest sval still leaves every coefficient below 2^31.
/// Calls `band(entries, base)` per band.
fn far_bands(far: &[Entry], mut band: impl FnMut(&[Entry], i32)) {
    let mut i = 0;
    while i < far.len() {
        let (first, base) = (i, i32::from(far[i].d));
        let mut widest = 0u16;
        while i < far.len() && i - first < BAND_MAX_RECORDS {
            let w = widest.max(far[i].s.unsigned_abs());
            if bits(u64::from(w)) + i32::from(far[i].d) - base > 31 {
                break;
            }
            widest = w;
            i += 1;
        }
        band(&far[first..i], base);
    }
}

/// Bits needed for `v`.
#[inline]
fn bits(v: u64) -> i32 {
    64 - v.leading_zeros() as i32
}

impl OutlierBands {
    /// Rebuilds these tables for the rows of `packed` viewed as an `m×k`
    /// activation, reusing their buffers.
    pub fn rebuild_rows(&mut self, packed: &PackedOperands, m: usize, k: usize) {
        self.clear();
        if packed.tagged_count() == 0 {
            return;
        }
        let (pos, exps) = (packed.outlier_positions(), packed.outlier_exps());
        let (sval, shared) = (packed.svals(), packed.shared_exp());
        // Positions are strictly increasing, so each row's entries are one
        // run of the side table, already in depth order.
        let runs = || {
            let mut x = 0;
            std::iter::from_fn(move || {
                let i = *pos.get(x)? as usize / k;
                let end = x + pos[x..].partition_point(|&p| (p as usize) < (i + 1) * k);
                let run = x..end;
                x = end;
                Some((i, run))
            })
        };
        self.build(m, runs, |i, x| {
            let p = pos[x] as usize;
            Entry::new((p - i * k) as u32, sval[p], exps[x], shared)
        });
    }

    /// Tables for the columns of `packed` viewed as a `k×n` weight whose
    /// microkernel panels are `panels` — the svals come from the panels,
    /// the operand stream the kernel reads. Meant to be memoised: it keeps
    /// no build buffers.
    pub fn columns(packed: &PackedOperands, panels: &PackedPanels) -> Self {
        let mut t = Self::default();
        t.rebuild_columns(packed, panels);
        t.scratch = Scratch::default();
        t
    }

    /// Rebuilds these tables as [`OutlierBands::columns`] of `packed`,
    /// reusing their buffers.
    pub fn rebuild_columns(&mut self, packed: &PackedOperands, panels: &PackedPanels) {
        self.clear();
        if packed.tagged_count() == 0 {
            return;
        }
        let (pos, exps) = (packed.outlier_positions(), packed.outlier_exps());
        let (n, shared) = (panels.n(), packed.shared_exp());
        // Counting sort by column; within a column, entries keep position
        // order, which is depth order. Column `j` counts at `start[j + 2]`,
        // so after the prefix sums `start[j + 1]` is its fill cursor, and
        // the fill leaves `start[j]..start[j + 1]` as its entries.
        let Scratch {
            mut start,
            mut ents,
            mut nonempty,
            far,
        } = std::mem::take(&mut self.scratch);
        self.scratch.far = far;
        start.resize(n + 2, 0);
        for &p in pos {
            let j = p as usize % n;
            if start[j + 2] == 0 {
                nonempty.push(j as u32);
            }
            start[j + 2] += 1;
        }
        let mut acc = 0;
        for x in &mut start {
            acc += *x;
            *x = acc;
        }
        ents.resize(pos.len(), Entry::default());
        for (&p, &e) in pos.iter().zip(exps) {
            let (kk, j) = (p as usize / n, p as usize % n);
            let s = panels.panel(j / PANEL_NR)[kk * PANEL_NR + j % PANEL_NR];
            ents[start[j + 1] as usize] = Entry::new(kk as u32, s, e, shared);
            start[j + 1] += 1;
        }
        nonempty.sort_unstable();
        let runs = || {
            nonempty.iter().map(|&j| {
                (
                    j as usize,
                    start[j as usize] as usize..start[j as usize + 1] as usize,
                )
            })
        };
        self.build(n, runs, |_, x| ents[x]);
        start.clear();
        ents.clear();
        nonempty.clear();
        (self.scratch.start, self.scratch.ents, self.scratch.nonempty) = (start, ents, nonempty);
    }

    /// Empties the tables, keeping their buffers.
    fn clear(&mut self) {
        self.lines.clear();
        self.bands.clear();
        self.kk.clear();
        self.coef.clear();
        self.d.clear();
    }

    /// Fills these (empty) tables for `lines` lines from the nonempty
    /// lines' entry runs `runs()` — `(line, run)` pairs in line order,
    /// entry `x` of line `l` being `entry(l, x)`, in depth order. Two
    /// passes: the first picks each line's base and counts its records, so
    /// the second fills tables reserved at their exact size. Empty lines
    /// keep the default header.
    fn build<R: Iterator<Item = (usize, Range<usize>)>>(
        &mut self,
        lines: usize,
        runs: impl Fn() -> R,
        entry: impl Fn(usize, usize) -> Entry,
    ) {
        self.lines.resize(lines, BandLine::default());
        let mut far = std::mem::take(&mut self.scratch.far);
        let (mut records, mut bands) = (0usize, 0usize);
        for (l, run) in runs() {
            let plan = plan_line(run.map(|x| entry(l, x)), &mut far);
            let head = &mut self.lines[l];
            (head.b0, head.reach) = (plan.b0 as i16, (plan.b0 + plan.w0) as i16);
            records += plan.records;
            bands += plan.bands;
        }
        self.bands.reserve_exact(bands);
        self.kk.reserve_exact(records);
        self.coef.reserve_exact(records);
        self.d.reserve_exact(records);
        for (l, run) in runs() {
            let line = run.map(|x| entry(l, x));
            let head = self.lines[l];
            split_entries(line.clone(), head.b0.into(), head.reach.into(), &mut far);
            self.push_line(l, line, &far);
        }
        far.clear();
        self.scratch.far = far;
    }

    fn push_record(&mut self, kk: u32, coef: i64, d: i16) {
        debug_assert!(
            coef.unsigned_abs() < 1 << 31,
            "coefficient {coef} overflows i32"
        );
        self.kk.push(kk);
        self.coef.push(coef as i32);
        self.d.push(d);
    }

    /// Closes the band of records `start..` at `off`.
    fn close_band(&mut self, start: usize, off: i32) {
        self.bands.push(Band {
            start: start as u32,
            end: self.kk.len() as u32,
            off: off as i16,
        });
    }

    /// Fills line `l`'s records and bands from its entries `line` and its
    /// split entries `far` (see [`split_entries`]), on the base its header
    /// already holds.
    fn push_line(&mut self, l: usize, line: impl Iterator<Item = Entry>, far: &[Entry]) {
        let (b0, reach) = (i32::from(self.lines[l].b0), i32::from(self.lines[l].reach));
        let rec = self.kk.len() as u32;
        let band_lo = self.bands.len() as u32;
        let mut band_start = self.kk.len();
        for e in line.filter(|e| e.s != 0) {
            if self.kk.len() - band_start == BAND_MAX_RECORDS {
                self.close_band(band_start, b0);
                band_start = self.kk.len();
            }
            let (s, d) = (i64::from(e.s), i32::from(e.d));
            let coef = if (b0..=reach).contains(&d) {
                (s << (d - b0)) - (s << -b0)
            } else {
                -(s << -b0)
            };
            self.push_record(e.kk, coef, e.d);
        }
        let count = self.kk.len() as u32 - rec;
        if count > 0 {
            self.close_band(band_start, b0);
        }
        // Far bands: the `+s·2^d` halves of the split entries.
        far_bands(far, |band, base| {
            let first = self.kk.len();
            for e in band {
                self.push_record(e.kk, i64::from(e.s) << (i32::from(e.d) - base), e.d);
            }
            self.close_band(first, base);
        });
        let head = &mut self.lines[l];
        (head.rec, head.count) = (rec, count);
        (head.band_lo, head.band_hi) = (band_lo, self.bands.len() as u32);
    }

    /// Whether no line has a record — the table of an operand without
    /// tagged entries, which allocates nothing.
    pub fn is_empty(&self) -> bool {
        self.kk.is_empty()
    }

    /// Line `l`'s header (an empty line when the whole table is empty).
    #[inline]
    pub fn line(&self, l: usize) -> BandLine {
        if self.lines.is_empty() {
            return BandLine::default();
        }
        self.lines[l]
    }

    /// Line `l`'s bands, count region first.
    #[inline]
    pub fn bands(&self, line: &BandLine) -> &[Band] {
        &self.bands[line.band_lo as usize..line.band_hi as usize]
    }

    /// Depths of records `band.start..band.end`.
    #[inline]
    pub fn depths(&self, band: &Band) -> &[u32] {
        &self.kk[band.start as usize..band.end as usize]
    }

    /// Coefficients of records `band.start..band.end`.
    #[inline]
    pub fn coefs(&self, band: &Band) -> &[i32] {
        &self.coef[band.start as usize..band.end as usize]
    }

    /// Depths of `line`'s count region, ascending.
    #[inline]
    pub fn count_depths(&self, line: &BandLine) -> &[u32] {
        &self.kk[line.rec as usize..(line.rec + line.count) as usize]
    }

    /// Record `r`: `(depth, coefficient, offset)`.
    #[inline]
    pub fn record(&self, r: usize) -> (u32, i32, i16) {
        (self.kk[r], self.coef[r], self.d[r])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::PackedPlane;
    use crate::{encode_tensor, Bf16};

    /// Checks that line `l`'s records rebuild every entry's delta
    /// `s·(2^d − 1)` exactly — one whole atom, or a `−s` atom plus an
    /// `s·2^d` atom — and respect the documented bounds.
    fn check_line(t: &OutlierBands, l: usize, want: &[(u32, i16, i16)]) {
        let line = t.line(l);
        let mut atoms: Vec<(u32, i128, i32)> = Vec::new();
        let live: Vec<_> = want.iter().filter(|e| e.1 != 0).collect();
        let dmin = live.iter().map(|e| e.2).min().unwrap_or(0).min(0);
        if line.count > 0 {
            assert!(line.b0 <= 0);
            assert_eq!(t.bands(&line)[0].off, line.b0, "count region first");
        }
        for band in t.bands(&line) {
            let off = i32::from(band.off);
            assert!(band.end - band.start <= BAND_MAX_RECORDS as u32);
            assert!(band.off >= dmin, "band base below every product frame");
            for (&kk, &c) in t.depths(band).iter().zip(t.coefs(band)) {
                atoms.push((kk, i128::from(c), off));
            }
        }
        assert_eq!(line.count as usize, live.len(), "line {l}");
        assert_eq!(t.count_depths(&line).len(), live.len());
        assert!(t.count_depths(&line).windows(2).all(|w| w[0] < w[1]));
        for &&(kk, s, d) in &live {
            let (s, d) = (i128::from(s), i32::from(d));
            let mine: Vec<_> = atoms.iter().filter(|a| a.0 == kk).collect();
            match mine.as_slice() {
                [(_, c, off)] => {
                    assert!(!line.is_split(d as i16));
                    assert_eq!(*c, (s << (d - off)) - (s << -off), "line {l} depth {kk}");
                }
                [a, b] => {
                    assert!(line.is_split(d as i16));
                    let (near, far) = if a.2 == i32::from(line.b0) {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    assert_eq!(near.1, -(s << -near.2), "line {l} depth {kk}");
                    assert_eq!(far.1, s << (d - far.2), "line {l} depth {kk}");
                }
                other => panic!("line {l} depth {kk}: {} atoms", other.len()),
            }
        }
        assert_eq!(
            atoms.len(),
            live.iter()
                .map(|e| 1 + usize::from(line.is_split(e.2)))
                .sum()
        );
    }

    #[test]
    fn columns_rebuild_every_delta_for_any_sval_and_offset() {
        let (k, n) = (40, 6);
        let vals: Vec<Bf16> = (0..k * n)
            .map(|i| {
                let x = ((i % 13) as f32 - 6.0) * 0.37;
                match i % 11 {
                    0 => Bf16::from_f32(x * 1e30),
                    3 => Bf16::from_f32(x * 1e-30),
                    5 => Bf16::from_f32(x * 300.0),
                    _ => Bf16::from_f32(x),
                }
            })
            .collect();
        let mut packed = encode_tensor(&vals, None).unwrap().decode_packed();
        // An out-of-range sval and extreme exponents on tagged entries.
        packed.flip_bit(PackedPlane::OutlierExp, 0, 7);
        packed.flip_bit(PackedPlane::OutlierExp, 1, 0);
        let p2 = packed.outlier_positions()[2] as usize;
        packed.flip_bit(PackedPlane::Sval, p2, 14);
        let panels = packed.pack_panels(k, n);
        let t = OutlierBands::columns(&packed, &panels);
        assert_eq!(t.lines.len(), n);
        let shared = i32::from(packed.shared_exp());
        for j in 0..n {
            let want: Vec<(u32, i16, i16)> = packed
                .outlier_positions()
                .iter()
                .zip(packed.outlier_exps())
                .filter(|(&p, _)| p as usize % n == j)
                .map(|(&p, &e)| {
                    let kk = p as usize / n;
                    let d = (i32::from(e.max(1)) - shared) as i16;
                    (kk as u32, packed.svals()[kk * n + j], d)
                })
                .collect();
            check_line(&t, j, &want);
        }
    }

    #[test]
    fn rows_split_wide_spans_into_far_bands() {
        let (m, k) = (3, 64);
        let mut vals = vec![Bf16::from_f32(1.0); m * k];
        // Row 0: one huge and one tiny outlier — far apart in offset.
        vals[5] = Bf16::from_f32(-3.0e35);
        vals[9] = Bf16::from_f32(7.0e-35);
        // Row 1: offsets within one band.
        vals[k + 2] = Bf16::from_f32(1.0e3);
        vals[k + 7] = Bf16::from_f32(-1.0e-3);
        let packed = encode_tensor(&vals, None).unwrap().decode_packed();
        let mut t = OutlierBands::default();
        t.rebuild_rows(&packed, m, k);
        let line0 = t.line(0);
        assert!(t.bands(&line0).len() >= 2, "a 2^230 span needs a far band");
        assert_eq!(t.bands(&t.line(1)).len(), 1);
        assert_eq!(t.line(2).count, 0);
        let shared = i32::from(packed.shared_exp());
        for i in 0..m {
            let want: Vec<(u32, i16, i16)> = packed
                .outlier_positions()
                .iter()
                .zip(packed.outlier_exps())
                .filter(|(&p, _)| p as usize / k == i)
                .map(|(&p, &e)| {
                    let d = (i32::from(e.max(1)) - shared) as i16;
                    (p % k as u32, packed.svals()[p as usize], d)
                })
                .collect();
            check_line(&t, i, &want);
        }
    }

    #[test]
    fn base_band_starts_at_the_lowest_offset_within_reach() {
        let plan = |ds: &[i16], s: i16| {
            let p = plan_line(ds.iter().map(|&d| Entry { kk: 0, s, d }), &mut Vec::new());
            (p.b0, p.w0, p.records)
        };
        // A span that fits keeps the lowest offset; all-positive lines sit
        // on the kernel frame; an empty line needs no record.
        assert_eq!(plan(&[-8, 14], 255), (-8, 23, 2));
        assert_eq!(plan(&[7, 40], 255), (0, 23, 3));
        assert_eq!(plan(&[], 255), (0, 31, 0));
        // A wider span bases on its lowest offset and splits every entry
        // above the reach `b0 + w0`.
        assert_eq!(
            plan(&[-18, -1, -1, -1, 7, 9, 11, 13, 13], 255),
            (-18, 23, 14)
        );
        // The base never drops below −w0 (0 must stay inside the band), so
        // entries below it split too. A 16-bit sval narrows the band to 15
        // offsets.
        assert_eq!(plan(&[-60, -60, -60, 3], i16::MIN), (-15, 15, 8));
        // Zero svals carry no delta and need no record.
        let mut line: Vec<Entry> = [-3, 5].iter().map(|&d| Entry { kk: 0, s: 9, d }).collect();
        line.push(Entry {
            kk: 1,
            s: 0,
            d: -90,
        });
        let p = plan_line(line.into_iter(), &mut Vec::new());
        assert_eq!((p.b0, p.w0, p.records, p.bands), (-3, 27, 2, 1));
    }
}
