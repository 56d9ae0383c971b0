//! The AVX2 LUT-GEMM arm, `avx2-gather`.
//!
//! With the filter byte fixed, every product of a tap lives in one
//! 512-byte LUT row — the same hoisting the scalar kernel exploits, and
//! the CPU analogue of the paper's `tex1Dfetch<ushort>` reads from
//! texture-cached table rows. [`gather_panel`] fetches 8 two-byte entries
//! of that L1-resident row per `vpgatherdd`, keyed directly by the
//! activation bytes, so it resolves 16 products per step where the
//! scalar walker resolves one per load.
//!
//! It runs over a **K-major packed panel** (`pbuf[k*mp + i]` = patch
//! row `i`, tap `kb+k`) produced by [`pack_panel`], whose 16×16 SSE
//! byte-transpose keeps packing ≈2% of kernel time.
//!
//! # Bit-identity
//!
//! This arm serves only [`Accumulator::Exact`] (the dispatch layer
//! guarantees it). Every 16-bit product is decoded exactly — sign- or
//! zero-extended per table signedness — and summed in integers wide
//! enough to never wrap: per ≤4096-tap panel the i32 memory accumulator
//! is exact (4096·65 535 < 2³¹), and the cross-panel i64 accumulator is
//! the model's own width. Exact integer addition is associative, so any
//! blocking/vectorization order produces the same i64 as the golden
//! per-row fold — hence the same dequantized f32 bits. Padded lanes
//! (`mh..mp`) compute garbage that is never read, and the gather's 4-byte
//! read at row offset 255 lands on the trailing zero entry of
//! [`MulLut::padded_entries`], never out of bounds.

use super::check_seg_operands;
use crate::pool::WorkerPool;
use crate::prepared::{PreparedFilter, SegmentEpilogue};
use axmult::{MulLut, Signedness};
use axquant::QuantParams;
use axtensor::{Matrix, SegmentTable};
use std::arch::x86_64::*;

/// The segmented LUT GEMM on the AVX2 arm, sharded over `pool` exactly
/// like the scalar walker (contiguous row spans, partition-independent
/// bits).
///
/// Callers (the dispatch layer) must have verified AVX2 support; the
/// accumulator model is implicitly
/// [`Accumulator::Exact`](crate::accumulator::Accumulator::Exact).
///
/// # Panics
///
/// As [`super::lut_gemm_tiled_seg`].
#[allow(clippy::too_many_arguments)]
pub(super) fn lut_gemm_simd_seg(
    patches: &Matrix<u8>,
    patch_sums: &[i64],
    plan: &PreparedFilter,
    seg_q: &[QuantParams],
    segments: &SegmentTable,
    lut: &MulLut,
    pool: &WorkerPool,
) -> Vec<f32> {
    check_seg_operands(patches, patch_sums, plan, seg_q, segments);
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
                r0,
                span,
                patches,
                patch_sums,
                plan,
                row_seg_ref,
                epi_ref,
                table,
                signedness,
            );
        }));
    }
    pool.run(jobs);
    out
}

/// Run the blocked SIMD panels over output rows `r0 .. r0 + span/c_out`.
///
/// Blocking: `mb_step` output rows at a time (acc64 tile ≈ 2 MB max),
/// rounded-up working width `mp` a multiple of 32 so the gathers sweep
/// whole vectors; the tap dimension in `kc ≤ 4096` panels so the packed
/// panel stays ≈1 MB and the per-channel i32 accumulator cannot wrap.
#[allow(clippy::too_many_arguments)]
fn simd_span(
    r0: usize,
    out_span: &mut [f32],
    patches: &Matrix<u8>,
    patch_sums: &[i64],
    plan: &PreparedFilter,
    row_seg: &[u32],
    epi: &SegmentEpilogue,
    table: &[u16],
    signedness: Signedness,
) {
    let c_out = plan.c_out();
    let k_total = plan.k();
    let span_rows = out_span.len() / c_out;
    if span_rows == 0 {
        return;
    }
    let mb_step = ((2usize << 20) / (8 * c_out)).clamp(32, 4096) & !31;
    let mut pbuf: Vec<u8> = Vec::new();
    let mut acc32: Vec<i32> = Vec::new();
    let mut acc64: Vec<i64> = Vec::new();
    for mb in (0..span_rows).step_by(mb_step) {
        let mh = mb_step.min(span_rows - mb);
        let mp = mh.next_multiple_of(32);
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
                acc32[..mp].fill(0);
                let fcol = &plan.channel_bytes(c)[kb..kb + kw];
                // SAFETY: AVX2 support is a precondition of this arm
                // (checked by the dispatch layer); `pbuf` holds `kw*mp`
                // packed bytes with `mp % 32 == 0`, `acc32` has `mp`
                // lanes, and `table` is the gather-padded LUT (row reads
                // stay in bounds — module docs).
                unsafe {
                    match signedness {
                        Signedness::Signed => {
                            gather_panel::<true>(&pbuf, fcol, table, &mut acc32, mp);
                        }
                        Signedness::Unsigned => {
                            gather_panel::<false>(&pbuf, fcol, table, &mut acc32, mp);
                        }
                    }
                }
                let a64 = &mut acc64[c * mp..c * mp + mh];
                for (a, &v) in a64.iter_mut().zip(&acc32[..mh]) {
                    *a += i64::from(v);
                }
            }
        }
        // Epilogue: Eq. 4 correction + dequantization under the owning
        // segment's constants — live rows only, padded lanes dropped.
        for i in 0..mh {
            let r = r0 + mb + i;
            let sp = patch_sums[r];
            let s = row_seg[r] as usize;
            for c in 0..c_out {
                out_span[(mb + i) * c_out + c] = epi.dequantize(s, c, acc64[c * mp + i], sp);
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
/// (sign- or zero-extended per `SIGNED`).
///
/// # Safety
///
/// Requires AVX2. `pbuf` must hold `fcol.len()*mp` bytes, `mp % 16 == 0`,
/// `acc32.len() >= mp`, and `padded` must be a
/// [`MulLut::padded_entries`] table (`LUT_ENTRIES+1` entries) so the
/// dword read at row offset 255 stays in bounds.
#[target_feature(enable = "avx2")]
unsafe fn gather_panel<const SIGNED: bool>(
    pbuf: &[u8],
    fcol: &[u8],
    padded: &[u16],
    acc32: &mut [i32],
    mp: usize,
) {
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
            _mm256_storeu_si256(
                acc32.as_mut_ptr().add(mb) as *mut __m256i,
                _mm256_add_epi32(a0, v0),
            );
            _mm256_storeu_si256(
                acc32.as_mut_ptr().add(mb + 8) as *mut __m256i,
                _mm256_add_epi32(a1, v1),
            );
            mb += 16;
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

    #[test]
    fn simd_arms_match_reference_both_signednesses() {
        if !avx2() {
            return;
        }
        // K = 45 is not a multiple of any vector width in play.
        let fs = FilterShape::new(3, 3, 5, 7);
        for signedness in [Signedness::Signed, Signedness::Unsigned] {
            let (patches, sums, plan, input_q, lut) = setup_operands(53, fs, 11, signedness);
            let seg_q = [input_q];
            let segments = SegmentTable::single(patches.rows());
            let reference = lut_gemm_reference_seg(
                &patches,
                &sums,
                &plan,
                &seg_q,
                &segments,
                &lut,
                Accumulator::Exact,
            );
            for threads in [1, 3] {
                let pool = WorkerPool::new(threads);
                let got = lut_gemm_simd_seg(&patches, &sums, &plan, &seg_q, &segments, &lut, &pool);
                assert_eq!(got, reference, "{signedness:?} x{threads}");
            }
        }
    }
}
