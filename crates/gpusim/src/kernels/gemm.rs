//! The tiled `ApproxGEMM` kernel (phase (ii) of Algorithm 1).
//!
//! "Implemented as a typical tiled GEMM, in which the threads of the block
//! have to load a 2D tile from each matrix into the shared memory and each
//! thread computes a single output value. ... The multiplication of
//! quantized 8-bit values is implemented by a lookup table containing 256²
//! 16-bit values ... `tex1Dfetch<ushort>` to perform the lookup based on
//! the index created by stitching the multiplied 8-bit values into a single
//! 16-bit value. The results ... are accumulated in a 32-bit floating point
//! accumulator."
//!
//! The paper quantizes the filter matrix on the fly ("multiplied by the
//! matrix of filters (which are quantized at the same time)"); here the
//! caller quantizes each filter bank once and passes its bytes in. The
//! final step applies the Eq. 4 dequantization correction with the
//! precomputed `Sp` and `Sf` sums.

use super::{KernelRun, GEMM_TILE};
use crate::{EventCounts, Phase, TextureCache};
use axmult::{MulLut, Signedness};
use axquant::{FilterQuantization, QuantParams};
use axtensor::{Matrix, TensorError};

/// Run the approximate GEMM: `Mp (rows×K, u8)` × a **pre-quantized**
/// filter operand (`K × c_out`).
///
/// `sp` must hold the per-row logical quantized sums (`Σ ī`) produced by
/// the im2col kernel. The caller supplies the filter's byte matrix
/// (`K × c_out`, row-major), its per-column logical sums `Sf`, and the
/// per-column quantization parameters; no filter quantization work (real
/// or modeled) happens inside the kernel, so repeated GEMMs against the
/// same filter bank pay for its quantization exactly once (when the
/// caller prepares it). Every 8×8 multiplication is emulated by a fetch
/// from `lut` through the texture `cache`.
///
/// Returns the dequantized f32 output matrix (`rows × c_out`).
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if `sp` does not match `mp`'s
/// rows, if `sf`/`col_q` disagree in length, or if `f_bytes` is not
/// `K × c_out`.
#[allow(clippy::too_many_arguments)]
pub fn approx_gemm(
    mp: &Matrix<u8>,
    sp: &[i64],
    f_bytes: &[u8],
    sf: &[i64],
    col_q: &[QuantParams],
    input_q: QuantParams,
    lut: &MulLut,
    cache: &mut TextureCache,
) -> Result<KernelRun<Matrix<f32>>, TensorError> {
    let k = mp.cols();
    let c_out = sf.len();
    if col_q.len() != c_out {
        return Err(TensorError::LengthMismatch {
            expected: c_out,
            got: col_q.len(),
        });
    }
    if f_bytes.len() != k * c_out {
        return Err(TensorError::LengthMismatch {
            expected: k * c_out,
            got: f_bytes.len(),
        });
    }
    if sp.len() != mp.rows() {
        return Err(TensorError::LengthMismatch {
            expected: mp.rows(),
            got: sp.len(),
        });
    }
    let rows = mp.rows();
    let signed = lut.signedness();
    let a = mp.as_slice();
    let mut quant_ev = EventCounts::new();

    // --- Tiled multiplication.
    let a1 = f64::from(input_q.scale());
    let b1 = i64::from(input_q.zero_point());

    let mut out = Matrix::<f32>::zeros(rows, c_out);
    let mut lut_ev = EventCounts::new();
    let mut stage_ev = EventCounts::new();
    let mut hits = 0u64;

    let tiles_r = rows.div_ceil(GEMM_TILE);
    let tiles_c = c_out.div_ceil(GEMM_TILE);
    let tiles_k = k.div_ceil(GEMM_TILE);
    for tr in 0..tiles_r {
        for tc in 0..tiles_c {
            let r0 = tr * GEMM_TILE;
            let c0 = tc * GEMM_TILE;
            let r1 = (r0 + GEMM_TILE).min(rows);
            let c1 = (c0 + GEMM_TILE).min(c_out);
            // One f32 accumulator per thread (output element).
            let mut acc = [[0f32; GEMM_TILE]; GEMM_TILE];
            for tk in 0..tiles_k {
                let k0 = tk * GEMM_TILE;
                let k1 = (k0 + GEMM_TILE).min(k);
                let kw = k1 - k0;
                // Stage both tiles in shared memory: one global read and
                // one shared write per element, then one shared read per
                // use in the inner product. The B tile is staged
                // transposed, so each output reads one contiguous column.
                let mut b_tile = [[0u8; GEMM_TILE]; GEMM_TILE];
                let f_rows = f_bytes[k0 * c_out..k1 * c_out].chunks_exact(c_out);
                for (kk, f_row) in f_rows.enumerate() {
                    for (col, &bv) in b_tile.iter_mut().zip(&f_row[c0..c1]) {
                        col[kk] = bv;
                    }
                }
                let a_elems = ((r1 - r0) * kw) as u64;
                let b_elems = (kw * (c1 - c0)) as u64;
                stage_ev.global_read_bytes += a_elems + b_elems; // u8 tiles
                stage_ev.shared_ops += a_elems + b_elems;
                for r in r0..r1 {
                    let a_row = &a[r * k + k0..r * k + k1];
                    for c in c0..c1 {
                        // Stitched 16-bit indices, fetched through the
                        // texture cache in kk order.
                        let mut stitched = [0u16; GEMM_TILE];
                        for ((index, &av), &bv) in
                            stitched.iter_mut().zip(a_row).zip(&b_tile[c - c0])
                        {
                            *index = (u16::from(bv) << 8) | u16::from(av);
                        }
                        let stitched = &stitched[..kw];
                        hits += cache.access(stitched);
                        let local = &mut acc[r - r0][c - c0];
                        for &index in stitched {
                            let raw = lut.fetch_index(index);
                            *local += match signed {
                                Signedness::Signed => f32::from(raw as i16),
                                Signedness::Unsigned => f32::from(raw),
                            };
                        }
                    }
                }
                // Per output: two shared reads and one f32 accumulation
                // per kk. The accumulation belongs to the GEMM body; only
                // the fetch + index stitch are LUT work.
                let macs = ((r1 - r0) * (c1 - c0) * kw) as u64;
                stage_ev.shared_ops += 2 * macs;
                stage_ev.fma_ops += macs;
                lut_ev.alu_ops += macs; // index stitch
            }
            // Dequantization + Eq. 4 correction, then the output write.
            for r in r0..r1 {
                for c in c0..c1 {
                    let a2 = f64::from(col_q[c].scale());
                    let b2 = i64::from(col_q[c].zero_point());
                    let corrected =
                        f64::from(acc[r - r0][c - c0]) - (b2 * sp[r]) as f64 - (b1 * sf[c]) as f64
                            + (k as i64 * b1 * b2) as f64;
                    *out.at_mut(r, c) = (a1 * a2 * corrected) as f32;
                }
            }
            quant_ev.quant_ops += ((r1 - r0) * (c1 - c0)) as u64;
            stage_ev.global_write_bytes += ((r1 - r0) * (c1 - c0)) as u64 * 4;
        }
    }
    // Texture-cache classification of the fetch events.
    lut_ev.tex_hits = hits;
    lut_ev.tex_misses = (rows * k * c_out) as u64 - hits;

    Ok(KernelRun {
        output: out,
        events: vec![
            (Phase::Quantization, quant_ev),
            (Phase::LutLookup, lut_ev),
            (Phase::Other, stage_ev),
        ],
    })
}

/// Reference implementation of the same computation from the f32 filter
/// matrix, with exact integer arithmetic and `i64` accumulators — the
/// golden model [`approx_gemm`] is validated against when given an exact
/// LUT.
///
/// # Errors
///
/// Returns [`TensorError::MatrixDims`] if `K` differs between `Mp` and the
/// filter matrix.
pub fn reference_quantized_gemm(
    mp: &Matrix<u8>,
    filter: &Matrix<f32>,
    input_q: QuantParams,
    filter_q: &FilterQuantization,
    signedness: Signedness,
) -> Result<Matrix<f32>, TensorError> {
    let k = mp.cols();
    if filter.rows() != k {
        return Err(TensorError::MatrixDims {
            left_cols: k,
            right_rows: filter.rows(),
        });
    }
    let rows = mp.rows();
    let c_out = filter.cols();
    let decode = |byte: u8| -> i64 {
        match signedness {
            Signedness::Signed => i64::from(byte as i8),
            Signedness::Unsigned => i64::from(byte),
        }
    };
    let b1 = i64::from(input_q.zero_point());
    let mut out = Matrix::<f32>::zeros(rows, c_out);
    for r in 0..rows {
        for c in 0..c_out {
            let q2 = filter_q.for_channel(c);
            let b2 = i64::from(q2.zero_point());
            let a1a2 = f64::from(input_q.scale()) * f64::from(q2.scale());
            let mut acc = 0i64;
            for kk in 0..k {
                let i = decode(mp.at(r, kk));
                let f = i64::from(q2.quantize(filter.at(kk, c)));
                acc += (i - b1) * (f - b2);
            }
            *out.at_mut(r, c) = (a1a2 * acc as f64) as f32;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceConfig;
    use axquant::{QuantRange, RoundMode};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn input_q() -> QuantParams {
        QuantParams::from_range(-1.0, 1.0, QuantRange::i8(), RoundMode::NearestEven)
    }

    fn filter_q() -> FilterQuantization {
        QuantParams::from_range(-0.5, 0.5, QuantRange::i8(), RoundMode::NearestEven).into()
    }

    /// The kernel's filter operand: `filter` quantized under `fq` into
    /// bytes, column sums `Sf` and per-column parameters.
    struct QuantFilter {
        bytes: Vec<u8>,
        sf: Vec<i64>,
        col_q: Vec<QuantParams>,
    }

    fn quantize_filter(filter: &Matrix<f32>, fq: &FilterQuantization) -> QuantFilter {
        let (k, c_out) = (filter.rows(), filter.cols());
        let col_q = fq.resolve(c_out);
        let mut bytes = vec![0u8; k * c_out];
        let mut sf = vec![0i64; c_out];
        for r in 0..k {
            for c in 0..c_out {
                let q = col_q[c].quantize(filter.at(r, c));
                bytes[r * c_out + c] = (q & 0xFF) as u8;
                sf[c] += i64::from(q);
            }
        }
        QuantFilter { bytes, sf, col_q }
    }

    fn run(
        mp: &Matrix<u8>,
        sp: &[i64],
        filter: &QuantFilter,
        input_q: QuantParams,
        lut: &MulLut,
        cache: &mut TextureCache,
    ) -> Result<KernelRun<Matrix<f32>>, TensorError> {
        approx_gemm(
            mp,
            sp,
            &filter.bytes,
            &filter.sf,
            &filter.col_q,
            input_q,
            lut,
            cache,
        )
    }

    fn random_case(
        rows: usize,
        k: usize,
        c_out: usize,
        seed: u64,
    ) -> (Matrix<u8>, Vec<i64>, Matrix<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = input_q();
        let mut mp = vec![0u8; rows * k];
        let mut sp = vec![0i64; rows];
        for r in 0..rows {
            for kk in 0..k {
                let v: f32 = rng.gen_range(-1.0..1.0);
                let qi = q.quantize(v);
                mp[r * k + kk] = (qi & 0xFF) as u8;
                sp[r] += i64::from(qi);
            }
        }
        let filter: Vec<f32> = (0..k * c_out).map(|_| rng.gen_range(-0.5..0.5)).collect();
        (
            Matrix::from_vec(rows, k, mp).unwrap(),
            sp,
            Matrix::from_vec(k, c_out, filter).unwrap(),
        )
    }

    fn fresh_cache() -> TextureCache {
        let dev = DeviceConfig::gtx1080();
        TextureCache::new(dev.tex_cache_bytes, dev.tex_cache_line).unwrap()
    }

    #[test]
    fn exact_lut_matches_integer_reference() {
        let (mp, sp, filter) = random_case(20, 27, 5, 3);
        let fq = filter_q();
        let lut = MulLut::exact(Signedness::Signed);
        let qf = quantize_filter(&filter, &fq);
        let out = run(&mp, &sp, &qf, input_q(), &lut, &mut fresh_cache()).unwrap();
        let reference =
            reference_quantized_gemm(&mp, &filter, input_q(), &fq, Signedness::Signed).unwrap();
        for r in 0..20 {
            for c in 0..5 {
                let a = out.output.at(r, c);
                let b = reference.at(r, c);
                assert!(
                    (a - b).abs() <= 1e-3 * b.abs().max(1.0),
                    "({r},{c}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn eq4_correction_cancels_zero_points() {
        // All-zero input must produce an exactly-zero output regardless of
        // the zero-point, because real 0 is exactly representable.
        let q = input_q();
        let k = 9;
        let zero_byte = (q.quantize(0.0) & 0xFF) as u8;
        let mp = Matrix::from_vec(4, k, vec![zero_byte; 4 * k]).unwrap();
        let sp = vec![i64::from(q.quantize(0.0)) * k as i64; 4];
        let filter = Matrix::from_vec(k, 3, vec![0.25f32; k * 3]).unwrap();
        let qf = quantize_filter(&filter, &filter_q());
        let lut = MulLut::exact(Signedness::Signed);
        let out = run(&mp, &sp, &qf, q, &lut, &mut fresh_cache()).unwrap();
        for &v in out.output.as_slice() {
            assert!(v.abs() < 1e-5, "expected 0, got {v}");
        }
    }

    #[test]
    fn lut_fetch_count_equals_mac_count() {
        let (mp, sp, filter) = random_case(10, 18, 4, 7);
        let qf = quantize_filter(&filter, &filter_q());
        let lut = MulLut::exact(Signedness::Signed);
        let out = run(&mp, &sp, &qf, input_q(), &lut, &mut fresh_cache()).unwrap();
        let macs = 10 * 18 * 4;
        assert_eq!(out.total_events().tex_fetches(), macs as u64);
        assert_eq!(out.total_events().fma_ops, macs as u64);
        // The kernel models no filter quantization: its Quantization
        // events cover only the dequantization writes.
        assert_eq!(out.total_events().quant_ops, 10 * 4);
    }

    #[test]
    fn warm_cache_hits_dominate() {
        let (mp, sp, filter) = random_case(64, 36, 16, 11);
        let qf = quantize_filter(&filter, &filter_q());
        let lut = MulLut::exact(Signedness::Signed);
        let mut cache = fresh_cache();
        // Warm-up pass.
        let _ = run(&mp, &sp, &qf, input_q(), &lut, &mut cache).unwrap();
        let out = run(&mp, &sp, &qf, input_q(), &lut, &mut cache).unwrap();
        let ev = out.total_events();
        let rate = ev.tex_hits as f64 / ev.tex_fetches() as f64;
        assert!(rate > 0.5, "hit rate {rate}");
    }

    #[test]
    fn texture_counts_are_pinned() {
        // Hit/miss counts of a cold then a warm pass on the GTX-1080
        // cache, as the per-access reference LRU model classifies them
        // (`ReferenceLru` in `tests/properties.rs`).
        let (mp, sp, filter) = random_case(50, 75, 20, 2026);
        let qf = quantize_filter(&filter, &filter_q());
        let lut = MulLut::exact(Signedness::Signed);
        let mut cache = fresh_cache();
        let cold = run(&mp, &sp, &qf, input_q(), &lut, &mut cache).unwrap();
        let warm = run(&mp, &sp, &qf, input_q(), &lut, &mut cache).unwrap();
        let (cold, warm) = (cold.total_events(), warm.total_events());
        assert_eq!((cold.tex_hits, cold.tex_misses), (40232, 34768));
        assert_eq!((warm.tex_hits, warm.tex_misses), (40658, 34342));
    }

    #[test]
    fn validates_operand_sizes() {
        let q = input_q();
        let lut = MulLut::exact(Signedness::Signed);
        let mp = Matrix::from_vec(2, 3, vec![0u8; 6]).unwrap();
        let col_q = vec![q; 2];
        let sf = vec![0i64; 2];
        let mut cache = fresh_cache();
        // Wrong f_bytes length (a filter whose K differs from Mp's).
        let err = approx_gemm(&mp, &[0, 0], &[0u8; 8], &sf, &col_q, q, &lut, &mut cache);
        assert!(matches!(err, Err(TensorError::LengthMismatch { .. })));
        // col_q / sf disagreement.
        let err = approx_gemm(
            &mp,
            &[0, 0],
            &[0u8; 6],
            &sf,
            &col_q[..1],
            q,
            &lut,
            &mut cache,
        );
        assert!(matches!(err, Err(TensorError::LengthMismatch { .. })));
        // Sp of the wrong length.
        let err = approx_gemm(&mp, &[0], &[0u8; 6], &sf, &col_q, q, &lut, &mut cache);
        assert!(matches!(err, Err(TensorError::LengthMismatch { .. })));
    }

    #[test]
    fn truncated_lut_biases_output_down() {
        // With an under-estimating multiplier and all-positive logical
        // operands, outputs must not exceed the exact ones.
        let unit = QuantParams::from_range(0.0, 1.0, QuantRange::u8(), RoundMode::NearestEven);
        let k = 9;
        let mut rng = StdRng::seed_from_u64(5);
        let mut mp = vec![0u8; 6 * k];
        let mut sp = vec![0i64; 6];
        for r in 0..6 {
            for kk in 0..k {
                let qi = unit.quantize(rng.gen_range(0.0..1.0));
                mp[r * k + kk] = (qi & 0xFF) as u8;
                sp[r] += i64::from(qi);
            }
        }
        let mp = Matrix::from_vec(6, k, mp).unwrap();
        let filter = Matrix::from_vec(
            k,
            2,
            (0..k * 2).map(|_| rng.gen_range(0.0f32..1.0)).collect(),
        )
        .unwrap();
        let qf = quantize_filter(&filter, &unit.into());
        let exact = MulLut::exact(Signedness::Unsigned);
        let trunc = MulLut::from_fn(Signedness::Unsigned, |a, b| {
            axmult::behavioral::result_truncated(a as u32, b as u32, 6) as i32
        });
        let e = run(&mp, &sp, &qf, unit, &exact, &mut fresh_cache()).unwrap();
        let t = run(&mp, &sp, &qf, unit, &trunc, &mut fresh_cache()).unwrap();
        for (a, b) in t.output.as_slice().iter().zip(e.output.as_slice()) {
            assert!(a <= &(b + 1e-4), "approx {a} > exact {b}");
        }
    }
}
