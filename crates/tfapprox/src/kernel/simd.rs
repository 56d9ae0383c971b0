//! The SIMD LUT-GEMM arms, `avx2-gather` and `avx512-vbmi`.
//!
//! With the filter byte fixed, every product of a tap lives in one
//! 512-byte LUT row — the same hoisting the scalar kernel exploits, and
//! the CPU analogue of the paper's `tex1Dfetch<ushort>` reads from
//! texture-cached table rows. The arms differ only in how they fetch
//! products from that row:
//!
//! - [`gather_panel`] fetches 8 two-byte entries of the L1-resident row
//!   per `vpgatherdd`, keyed directly by the activation bytes.
//! - [`vbmi_panel`] holds the row in registers — the register file in
//!   the texture cache's part — as byte planes that `vpermi2b` indexes
//!   128 entries at a time, 64 products per step.
//!
//! Both run over a **K-major packed panel** (`pbuf[k*mp + i]` = patch
//! row `i`, tap `kb+k`) produced by [`pack_panel`], whose 16×16 SSE
//! byte-transpose keeps packing ≈2% of kernel time.
//!
//! # Bit-identity
//!
//! Every 16-bit product is decoded exactly — sign- or zero-extended per
//! table signedness (the VBMI arm first rebuilds the product from its
//! lo and hi bytes). How the products are summed depends on the
//! accumulator model; each way lands on the golden per-row fold's i64,
//! hence on the same dequantized f32 bits.
//!
//! - [`Accumulator::Exact`] and [`Accumulator::Wrapping`]: summed in
//!   integers wide enough to never wrap — per ≤4096-tap panel the i32
//!   memory accumulator is exact (4096·65 535 < 2³¹), and the cross-panel
//!   accumulator is i64. Exact integer addition is associative, so any
//!   blocking/vectorization order gives the golden exact sum. Reduction
//!   mod 2ⁿ is a ring homomorphism, so wrapping that sum once
//!   ([`Accumulator::wrap_sum`]) equals wrapping after every tap.
//! - [`Accumulator::Saturating`] with `bits ≤ 31`: each i32 lane clamps
//!   `min(max(acc + v, lo), hi)` after every tap (`acc + v` cannot
//!   overflow: |acc| ≤ 2³⁰, |v| ≤ 65 535). The sweep is tap-outer, so
//!   every lane folds its taps in ascending `k` — the scalar walker's
//!   sequence — and the clamped state carries across `kc` panels through
//!   the i64 accumulator. `Saturating(32)` bounds do not fit the lanes;
//!   the dispatch layer sends it to the scalar walker.
//!
//! Padded lanes (`mh..mp`) compute garbage that is never read, and the
//! gather's 4-byte read at row offset 255 lands on the trailing zero
//! entry of [`MulLut::padded_entries`], never out of bounds.

use super::{check_seg_operands, KernelKind};
use crate::accumulator::Accumulator;
use crate::prepared::{PreparedFilter, SegmentEpilogue};
use axmult::{MulLut, Signedness};
use axquant::QuantParams;
use axtensor::{Matrix, SegmentTable, WorkerPool};
use std::arch::x86_64::*;

/// The segmented LUT GEMM on the SIMD arm `kernel` (`Avx2Gather` or
/// `Avx512Vbmi`), sharded over `pool` exactly like the scalar walker
/// (contiguous row spans, partition-independent bits).
///
/// Callers (the dispatch layer) must have checked that `accumulator` is
/// not `Saturating` wider than 31 bits.
///
/// # Panics
///
/// As [`super::lut_gemm_tiled_seg`], and if the CPU cannot run `kernel`.
#[allow(clippy::too_many_arguments)]
pub(super) fn lut_gemm_simd_seg(
    kernel: KernelKind,
    patches: &Matrix<u8>,
    patch_sums: &[i64],
    plan: &PreparedFilter,
    seg_q: &[QuantParams],
    segments: &SegmentTable,
    lut: &MulLut,
    accumulator: Accumulator,
    pool: &WorkerPool,
) -> Vec<f32> {
    check_seg_operands(patches, patch_sums, plan, seg_q, segments);
    // The panels' target features are a memory-safety precondition.
    assert!(
        kernel.is_supported(),
        "{kernel} is not supported by this CPU"
    );
    let rows = patches.rows();
    let c_out = plan.c_out();
    let mut out = vec![0f32; rows * c_out];
    if rows == 0 || c_out == 0 {
        return out;
    }
    let epi = plan.segment_epilogue(seg_q);
    let row_seg = segments.element_segments();
    let epi_ref = &epi;
    let row_seg_ref: &[u32] = &row_seg;
    let table: &[u16] = lut.padded_entries();
    let signedness = lut.signedness();

    let rows_per = rows.div_ceil(pool.threads()).max(1);
    let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(rows.div_ceil(rows_per));
    for (t, span) in out.chunks_mut(rows_per * c_out).enumerate() {
        let r0 = t * rows_per;
        jobs.push(Box::new(move || {
            simd_span(
                kernel == KernelKind::Avx512Vbmi,
                r0,
                span,
                patches,
                patch_sums,
                plan,
                row_seg_ref,
                epi_ref,
                table,
                signedness,
                accumulator,
            );
        }));
    }
    pool.run(jobs);
    out
}

/// Run the blocked SIMD panels over output rows `r0 .. r0 + span/c_out`.
///
/// Blocking: `mb_step` output rows at a time (acc64 tile ≈ 2 MB max),
/// rounded-up working width `mp` a multiple of the arm's step (32 lanes
/// for gather, 64 for VBMI) so the panels sweep whole vectors; the tap
/// dimension in `kc ≤ 4096` panels so the packed panel stays ≈1 MB and
/// the per-channel i32 accumulator cannot wrap. A saturating model
/// instead carries its clamped lanes across panels.
#[allow(clippy::too_many_arguments)]
fn simd_span(
    vbmi: bool,
    r0: usize,
    out_span: &mut [f32],
    patches: &Matrix<u8>,
    patch_sums: &[i64],
    plan: &PreparedFilter,
    row_seg: &[u32],
    epi: &SegmentEpilogue,
    table: &[u16],
    signedness: Signedness,
    accumulator: Accumulator,
) {
    let c_out = plan.c_out();
    let k_total = plan.k();
    let span_rows = out_span.len() / c_out;
    if span_rows == 0 {
        return;
    }
    // `Some((lo, hi))` when every tap must clamp in-lane.
    let clamp = match accumulator {
        Accumulator::Saturating(bits) => Some((-(1i32 << (bits - 1)), (1i32 << (bits - 1)) - 1)),
        _ => None,
    };
    let lanes = if vbmi { 64 } else { 32 };
    let panel = match (signedness, clamp.is_some()) {
        (Signedness::Signed, false) => panel_fn::<true, false>(vbmi),
        (Signedness::Unsigned, false) => panel_fn::<false, false>(vbmi),
        (Signedness::Signed, true) => panel_fn::<true, true>(vbmi),
        (Signedness::Unsigned, true) => panel_fn::<false, true>(vbmi),
    };
    let (lo, hi) = clamp.unwrap_or_default();
    let mb_step = ((2usize << 20) / (8 * c_out)).clamp(lanes, 4096) & !(lanes - 1);
    let mut pbuf: Vec<u8> = Vec::new();
    let mut acc32: Vec<i32> = Vec::new();
    let mut acc64: Vec<i64> = Vec::new();
    for mb in (0..span_rows).step_by(mb_step) {
        let mh = mb_step.min(span_rows - mb);
        let mp = mh.next_multiple_of(lanes);
        let kc = k_total.min(4096).min(((1usize << 20) / mp).max(64)).max(1);
        if acc32.len() < mp {
            acc32.resize(mp, 0);
        }
        if acc64.len() < mp * c_out {
            acc64.resize(mp * c_out, 0);
        }
        acc64[..mp * c_out].fill(0);
        for kb in (0..k_total).step_by(kc) {
            let kw = kc.min(k_total - kb);
            pack_panel(patches, r0 + mb, mh, mp, kb, kw, &mut pbuf);
            for c in 0..c_out {
                let fcol = &plan.channel_bytes(c)[kb..kb + kw];
                let a64 = &mut acc64[c * mp..c * mp + mh];
                match clamp {
                    // Resume from the clamped state: it lies in `lo..=hi`,
                    // so it fits an i32 lane (padded lanes stay bounded).
                    Some(_) => {
                        for (l, &a) in acc32.iter_mut().zip(a64.iter()) {
                            *l = a as i32;
                        }
                    }
                    None => acc32[..mp].fill(0),
                }
                // SAFETY: `lut_gemm_simd_seg` asserted that the CPU runs
                // this arm (AVX2, plus AVX-512 F/BW/VBMI for `vbmi`);
                // `pbuf` holds `kw*mp` packed bytes with `mp` a multiple
                // of the arm's `lanes`, `acc32` has `mp` lanes (each in
                // `lo..=hi`, `bits ≤ 31`, when clamping), and `table` is
                // the gather-padded LUT (row reads stay in bounds —
                // module docs).
                unsafe { panel(&pbuf, fcol, table, &mut acc32, mp, lo, hi) };
                for (a, &v) in a64.iter_mut().zip(&acc32[..mh]) {
                    *a = if clamp.is_some() {
                        i64::from(v)
                    } else {
                        *a + i64::from(v)
                    };
                }
            }
        }
        // Epilogue: the one wrap of a wrapping model, then Eq. 4
        // correction + dequantization under the owning segment's
        // constants — live rows only, padded lanes dropped.
        for i in 0..mh {
            let r = r0 + mb + i;
            let sp = patch_sums[r];
            let s = row_seg[r] as usize;
            for c in 0..c_out {
                let acc = accumulator.wrap_sum(acc64[c * mp + i]);
                out_span[(mb + i) * c_out + c] = epi.dequantize(s, c, acc, sp);
            }
        }
    }
}

/// Pack patch rows `row0 .. row0+mh`, taps `kb .. kb+kw`, into a K-major
/// panel: `pbuf[k*mp + i]` = patch row `row0+i`, tap `kb+k`; lanes
/// `mh..mp` of every tap column are zeroed so vector sweeps can run to
/// `mp` without reading live data.
fn pack_panel(
    patches: &Matrix<u8>,
    row0: usize,
    mh: usize,
    mp: usize,
    kb: usize,
    kw: usize,
    pbuf: &mut Vec<u8>,
) {
    if pbuf.len() < kw * mp {
        pbuf.resize(kw * mp, 0);
    }
    let mfull = mh & !15;
    let kfull = kw & !15;
    for ib in (0..mfull).step_by(16) {
        for jb in (0..kfull).step_by(16) {
            // SAFETY: the 16 source rows each have `kb+jb+16 ≤ cols`
            // bytes; the 16 destination columns end at
            // `(jb+15)*mp + ib + 16 ≤ kw*mp`; AVX2 (⊃ SSE2) is a
            // precondition of this module's arms.
            unsafe {
                transpose16(
                    patches,
                    row0 + ib,
                    kb + jb,
                    pbuf.as_mut_ptr().add(jb * mp + ib),
                    mp,
                );
            }
        }
        for j in kfull..kw {
            for i in 0..16 {
                pbuf[j * mp + ib + i] = patches.row(row0 + ib + i)[kb + j];
            }
        }
    }
    for i in mfull..mh {
        let row = &patches.row(row0 + i)[kb..kb + kw];
        for (j, &v) in row.iter().enumerate() {
            pbuf[j * mp + i] = v;
        }
    }
    for j in 0..kw {
        pbuf[j * mp + mh..j * mp + mp].fill(0);
    }
}

/// 16×16 byte transpose: read 16 consecutive patch rows × 16 taps,
/// write 16 tap columns of the packed panel (stride `mp`), via a 4-level
/// `punpck` tree.
///
/// # Safety
///
/// Requires AVX2; `col0+16` must not exceed the matrix width, rows
/// `row0..row0+16` must exist, and `dst` must have room for 16 stores of
/// 16 bytes at stride `mp`.
#[target_feature(enable = "avx2")]
unsafe fn transpose16(patches: &Matrix<u8>, row0: usize, col0: usize, dst: *mut u8, mp: usize) {
    let mut r = [_mm_setzero_si128(); 16];
    for (i, slot) in r.iter_mut().enumerate() {
        *slot = _mm_loadu_si128(patches.row(row0 + i).as_ptr().add(col0) as *const __m128i);
    }
    let mut t = [_mm_setzero_si128(); 16];
    for i in 0..8 {
        t[2 * i] = _mm_unpacklo_epi8(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm_unpackhi_epi8(r[2 * i], r[2 * i + 1]);
    }
    for i in 0..4 {
        r[4 * i] = _mm_unpacklo_epi16(t[4 * i], t[4 * i + 2]);
        r[4 * i + 1] = _mm_unpackhi_epi16(t[4 * i], t[4 * i + 2]);
        r[4 * i + 2] = _mm_unpacklo_epi16(t[4 * i + 1], t[4 * i + 3]);
        r[4 * i + 3] = _mm_unpackhi_epi16(t[4 * i + 1], t[4 * i + 3]);
    }
    for i in 0..2 {
        t[8 * i] = _mm_unpacklo_epi32(r[8 * i], r[8 * i + 4]);
        t[8 * i + 1] = _mm_unpackhi_epi32(r[8 * i], r[8 * i + 4]);
        t[8 * i + 2] = _mm_unpacklo_epi32(r[8 * i + 1], r[8 * i + 5]);
        t[8 * i + 3] = _mm_unpackhi_epi32(r[8 * i + 1], r[8 * i + 5]);
        t[8 * i + 4] = _mm_unpacklo_epi32(r[8 * i + 2], r[8 * i + 6]);
        t[8 * i + 5] = _mm_unpackhi_epi32(r[8 * i + 2], r[8 * i + 6]);
        t[8 * i + 6] = _mm_unpacklo_epi32(r[8 * i + 3], r[8 * i + 7]);
        t[8 * i + 7] = _mm_unpackhi_epi32(r[8 * i + 3], r[8 * i + 7]);
    }
    for i in 0..8 {
        r[2 * i] = _mm_unpacklo_epi64(t[i], t[i + 8]);
        r[2 * i + 1] = _mm_unpackhi_epi64(t[i], t[i + 8]);
    }
    for (j, v) in r.iter().enumerate() {
        _mm_storeu_si128(dst.add(j * mp) as *mut __m128i, *v);
    }
}

/// The `vpgatherdd` arm: tap-outer sweep, so each tap's 512-byte LUT row
/// stays L1-hot across the whole `mp` lane sweep; 16 lanes per step as
/// two 8-lane gathers of 32-bit words, keeping the low 16 bits of each
/// (sign- or zero-extended per `SIGNED`). With `CLAMP`, every lane
/// clamps to `lo..=hi` after each tap; otherwise `lo`/`hi` are unused.
///
/// # Safety
///
/// Requires AVX2. `pbuf` must hold `fcol.len()*mp` bytes, `mp % 16 == 0`,
/// `acc32.len() >= mp`, `CLAMP` requires `lo ≤ hi` with every lane of
/// `acc32` in `lo..=hi` and `|lo|, |hi| ≤ 2³⁰`, and `padded` must be a
/// [`MulLut::padded_entries`] table (`LUT_ENTRIES+1` entries) so the
/// dword read at row offset 255 stays in bounds.
#[target_feature(enable = "avx2")]
unsafe fn gather_panel<const SIGNED: bool, const CLAMP: bool>(
    pbuf: &[u8],
    fcol: &[u8],
    padded: &[u16],
    acc32: &mut [i32],
    mp: usize,
    lo: i32,
    hi: i32,
) {
    let (lo, hi) = (_mm256_set1_epi32(lo), _mm256_set1_epi32(hi));
    for (k, &fb) in fcol.iter().enumerate() {
        let row = padded.as_ptr().add((fb as usize) << 8) as *const i32;
        let col = pbuf.as_ptr().add(k * mp);
        let mut mb = 0;
        while mb < mp {
            let idx16 = _mm_loadu_si128(col.add(mb) as *const __m128i);
            let idx0 = _mm256_cvtepu8_epi32(idx16);
            let idx1 = _mm256_cvtepu8_epi32(_mm_srli_si128(idx16, 8));
            let g0 = _mm256_i32gather_epi32::<2>(row, idx0);
            let g1 = _mm256_i32gather_epi32::<2>(row, idx1);
            let (v0, v1) = if SIGNED {
                (
                    _mm256_srai_epi32(_mm256_slli_epi32(g0, 16), 16),
                    _mm256_srai_epi32(_mm256_slli_epi32(g1, 16), 16),
                )
            } else {
                (
                    _mm256_srli_epi32(_mm256_slli_epi32(g0, 16), 16),
                    _mm256_srli_epi32(_mm256_slli_epi32(g1, 16), 16),
                )
            };
            let a0 = _mm256_loadu_si256(acc32.as_ptr().add(mb) as *const __m256i);
            let a1 = _mm256_loadu_si256(acc32.as_ptr().add(mb + 8) as *const __m256i);
            let mut s0 = _mm256_add_epi32(a0, v0);
            let mut s1 = _mm256_add_epi32(a1, v1);
            if CLAMP {
                s0 = _mm256_min_epi32(_mm256_max_epi32(s0, lo), hi);
                s1 = _mm256_min_epi32(_mm256_max_epi32(s1, lo), hi);
            }
            _mm256_storeu_si256(acc32.as_mut_ptr().add(mb) as *mut __m256i, s0);
            _mm256_storeu_si256(acc32.as_mut_ptr().add(mb + 8) as *mut __m256i, s1);
            mb += 16;
        }
    }
}

/// One tap-outer panel sweep: `(pbuf, fcol, padded, acc32, mp, lo, hi)`,
/// with the contract of [`gather_panel`] / [`vbmi_panel`].
type PanelFn = unsafe fn(&[u8], &[u8], &[u16], &mut [i32], usize, i32, i32);

/// The panel function of the gather (`vbmi == false`) or VBMI arm.
fn panel_fn<const SIGNED: bool, const CLAMP: bool>(vbmi: bool) -> PanelFn {
    if vbmi {
        vbmi_panel::<SIGNED, CLAMP>
    } else {
        gather_panel::<SIGNED, CLAMP>
    }
}

/// `vpermt2b` indices. `[0]`/`[1]` pick the lo/hi byte of the 64 `u16`
/// entries in a pair of zmm. `[2]`/`[3]` rebuild the products of lanes
/// 0–31 / 32–63 from a lo-byte (indices 0..64) and a hi-byte (64..128)
/// vector: dword `j` of the half holds its lane `j` in the low word and
/// lane `16+j` in the high word, so shifts alone decode both.
const SHUFFLES: [[u8; 64]; 4] = {
    let mut idx = [[0u8; 64]; 4];
    let mut i = 0;
    while i < 64 {
        idx[0][i] = 2 * i as u8;
        idx[1][i] = 2 * i as u8 + 1;
        let (j, b) = (i / 4, i % 4);
        let src = 64 * (b % 2) + j + 16 * (b / 2);
        idx[2][i] = src as u8;
        idx[3][i] = (src + 32) as u8;
        i += 1;
    }
    idx
};

/// The `vpermi2b` arm: [`gather_panel`]'s sweep with the tap's LUT row
/// held in registers as lo-byte planes `pl` and hi-byte planes `ph`
/// (entries `64q .. 64q+64` in plane `q`). Per 64 lanes the low 7 bits of
/// each activation byte index planes 0–1 and 2–3 and its top bit picks
/// between them; the two bytes then rebuild the product.
///
/// # Safety
///
/// Requires AVX-512 F, BW and VBMI. `pbuf` must hold `fcol.len()*mp`
/// bytes, `mp % 64 == 0`, `acc32.len() >= mp`, `CLAMP` requires `lo ≤
/// hi` with every lane of `acc32` in `lo..=hi` and `|lo|, |hi| ≤ 2³⁰`,
/// and `padded` must hold every 256-entry row (`LUT_ENTRIES` entries).
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn vbmi_panel<const SIGNED: bool, const CLAMP: bool>(
    pbuf: &[u8],
    fcol: &[u8],
    padded: &[u16],
    acc32: &mut [i32],
    mp: usize,
    lo: i32,
    hi: i32,
) {
    let plane_lo = _mm512_loadu_si512(SHUFFLES[0].as_ptr().cast());
    let plane_hi = _mm512_loadu_si512(SHUFFLES[1].as_ptr().cast());
    let words = [
        _mm512_loadu_si512(SHUFFLES[2].as_ptr().cast()),
        _mm512_loadu_si512(SHUFFLES[3].as_ptr().cast()),
    ];
    let (lo, hi) = (_mm512_set1_epi32(lo), _mm512_set1_epi32(hi));
    let low16 = _mm512_set1_epi32(0xFFFF);
    for (k, &fb) in fcol.iter().enumerate() {
        let row = padded.as_ptr().add((fb as usize) << 8) as *const __m512i;
        let mut pl = [_mm512_setzero_si512(); 4];
        let mut ph = [_mm512_setzero_si512(); 4];
        for q in 0..4 {
            let a = _mm512_loadu_si512(row.add(2 * q));
            let b = _mm512_loadu_si512(row.add(2 * q + 1));
            pl[q] = _mm512_permutex2var_epi8(a, plane_lo, b);
            ph[q] = _mm512_permutex2var_epi8(a, plane_hi, b);
        }
        let col = pbuf.as_ptr().add(k * mp);
        let mut mb = 0;
        while mb < mp {
            let x = _mm512_loadu_si512(col.add(mb).cast());
            let upper = _mm512_movepi8_mask(x);
            let lo_b = _mm512_mask_blend_epi8(
                upper,
                _mm512_permutex2var_epi8(pl[0], x, pl[1]),
                _mm512_permutex2var_epi8(pl[2], x, pl[3]),
            );
            let hi_b = _mm512_mask_blend_epi8(
                upper,
                _mm512_permutex2var_epi8(ph[0], x, ph[1]),
                _mm512_permutex2var_epi8(ph[2], x, ph[3]),
            );
            for (h, &widx) in words.iter().enumerate() {
                let w = _mm512_permutex2var_epi8(lo_b, widx, hi_b);
                let (v0, v1) = if SIGNED {
                    (
                        _mm512_srai_epi32::<16>(_mm512_slli_epi32::<16>(w)),
                        _mm512_srai_epi32::<16>(w),
                    )
                } else {
                    (_mm512_and_si512(w, low16), _mm512_srli_epi32::<16>(w))
                };
                let dst = acc32.as_mut_ptr().add(mb + 32 * h);
                for (off, v) in [(0, v0), (16, v1)] {
                    let mut s = _mm512_add_epi32(_mm512_loadu_si512(dst.add(off).cast()), v);
                    if CLAMP {
                        s = _mm512_min_epi32(_mm512_max_epi32(s, lo), hi);
                    }
                    _mm512_storeu_si512(dst.add(off).cast(), s);
                }
            }
            mb += 64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{lut_gemm_reference_seg, tests::setup_operands};
    use super::*;
    use crate::accumulator::Accumulator;
    use axtensor::FilterShape;

    fn avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// Every SIMD arm this host runs.
    fn simd_arms() -> Vec<KernelKind> {
        super::super::available_kernels()
            .into_iter()
            .filter(|&k| k != KernelKind::ScalarTiled)
            .collect()
    }

    #[test]
    fn pack_panel_transposes_with_tails_and_zero_padding() {
        if !avx2() {
            return;
        }
        // 37 rows (16-block + scalar tail), 21 taps (16-block + k tail),
        // mp 64 > mh 37 exercises the zero padding.
        let rows = 40;
        let cols = 30;
        let bytes: Vec<u8> = (0..rows * cols).map(|i| (i * 37 + 11) as u8).collect();
        let m = Matrix::from_vec(rows, cols, bytes).unwrap();
        let (row0, mh, mp, kb, kw) = (2, 37, 64, 5, 21);
        let mut pbuf = Vec::new();
        pack_panel(&m, row0, mh, mp, kb, kw, &mut pbuf);
        for k in 0..kw {
            for i in 0..mp {
                let want = if i < mh { m.row(row0 + i)[kb + k] } else { 0 };
                assert_eq!(pbuf[k * mp + i], want, "k={k} i={i}");
            }
        }
    }

    /// A SIMD arm's output against the golden model, at 1 and 3 threads.
    fn assert_matches_reference(
        kernel: KernelKind,
        patches: &Matrix<u8>,
        sums: &[i64],
        plan: &PreparedFilter,
        input_q: QuantParams,
        lut: &MulLut,
        accumulator: Accumulator,
    ) -> Vec<f32> {
        let seg_q = [input_q];
        let segments = SegmentTable::single(patches.rows());
        let reference =
            lut_gemm_reference_seg(patches, sums, plan, &seg_q, &segments, lut, accumulator);
        for threads in [1, 3] {
            let pool = WorkerPool::new(threads);
            let got = lut_gemm_simd_seg(
                kernel,
                patches,
                sums,
                plan,
                &seg_q,
                &segments,
                lut,
                accumulator,
                &pool,
            );
            assert_eq!(
                got,
                reference,
                "{kernel} {:?} {accumulator:?} x{threads}",
                lut.signedness()
            );
        }
        reference
    }

    #[test]
    fn simd_arms_match_reference_both_signednesses() {
        // K = 45 is not a multiple of any vector width in play; 53 rows
        // leave a ragged lane tail on every arm.
        let fs = FilterShape::new(3, 3, 5, 7);
        for kernel in simd_arms() {
            for signedness in [Signedness::Signed, Signedness::Unsigned] {
                let (patches, sums, plan, input_q, lut) = setup_operands(53, fs, 11, signedness);
                for accumulator in [
                    Accumulator::Exact,
                    Accumulator::Saturating(12),
                    Accumulator::Wrapping(10),
                ] {
                    assert_matches_reference(
                        kernel,
                        &patches,
                        &sums,
                        &plan,
                        input_q,
                        &lut,
                        accumulator,
                    );
                }
            }
        }
    }

    #[test]
    fn saturated_lanes_carry_across_k_panels() {
        // K = 4141 splits into a 4096-tap panel and a 45-tap one. Every
        // product leans one way, so Saturating(12) pins each lane at a
        // bound inside the first panel, while the second panel's 45 taps
        // alone stay far inside the bounds: a lane that lost its state at
        // the panel edge cannot match.
        let fs = FilterShape::new(1, 1, 4141, 3);
        let accumulator = Accumulator::Saturating(12);
        for kernel in simd_arms() {
            for signedness in [Signedness::Signed, Signedness::Unsigned] {
                let (patches, sums, plan, input_q, _) = setup_operands(40, fs, 7, signedness);
                let lut = match signedness {
                    Signedness::Signed => MulLut::from_fn(signedness, |a, b| -((a * b).abs() >> 9)),
                    Signedness::Unsigned => MulLut::from_fn(signedness, |a, b| (a * b) >> 10),
                };
                let saturated = assert_matches_reference(
                    kernel,
                    &patches,
                    &sums,
                    &plan,
                    input_q,
                    &lut,
                    accumulator,
                );
                let exact = assert_matches_reference(
                    kernel,
                    &patches,
                    &sums,
                    &plan,
                    input_q,
                    &lut,
                    Accumulator::Exact,
                );
                assert!(
                    saturated.iter().zip(&exact).all(|(s, e)| s != e),
                    "{kernel} {signedness:?}: every output must saturate"
                );
            }
        }
    }
}
