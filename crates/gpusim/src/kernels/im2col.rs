//! The quantizing image-to-columns kernel (phase (i) of Algorithm 1).
//!
//! "Each chunk is converted to a matrix of 8-bit integer values Mp, in
//! which each row (patch) corresponds to single position of the convolution
//! kernel. At the same time, the dequantization sum for each patch is also
//! computed and stored as a vector Sp."
//!
//! Two patch-sum strategies are modeled, matching the paper's discussion:
//!
//! - [`PatchSumStrategy::PrefixScan`]: the paper's choice — a fixed block
//!   size independent of the patch length; partial sums are extracted with
//!   a shared-memory prefix scan and combined with `atomicAdd`, "as the
//!   rest of the patch may be processed by other thread blocks".
//! - [`PatchSumStrategy::PerPatchThread`]: the rejected alternative — one
//!   thread per patch, which serializes the sum and makes global reads
//!   uncoalesced.

use super::{KernelRun, BLOCK_SIZE};
use crate::{EventCounts, Phase};
use axquant::QuantParams;
use axtensor::pool::{run_spans, spans, split_spans};
use axtensor::{ConvGeometry, FilterShape, Matrix, Shape4, Tensor, TensorError, WorkerPool};
use serde::{Deserialize, Serialize};

/// How per-patch dequantization sums are accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PatchSumStrategy {
    /// Shared-memory prefix scan + `atomicAdd` (the paper's solution).
    #[default]
    PrefixScan,
    /// One thread per patch (limits parallelism, uncoalesced reads).
    PerPatchThread,
}

/// The quantized patch matrix and its side products.
#[derive(Debug, Clone)]
pub struct QuantPatches {
    /// `rows × patch_len` matrix of 8-bit byte patterns (two's complement
    /// for signed quantization).
    pub matrix: Matrix<u8>,
    /// Per-row sums of the *logical* quantized values (`Σ ī`), the paper's
    /// vector `Sp`.
    pub patch_sums: Vec<i64>,
    /// Shape of the convolution output these patches produce.
    pub out_shape: Shape4,
}

/// Run the quantizing im2col over one input chunk, on the calling
/// thread: [`im2col_quant_on`] without a pool.
///
/// # Errors
///
/// Propagates shape errors from [`ConvGeometry::output_shape`].
pub fn im2col_quant(
    chunk: &Tensor<f32>,
    filter: FilterShape,
    geom: ConvGeometry,
    input_q: QuantParams,
    strategy: PatchSumStrategy,
) -> Result<KernelRun<QuantPatches>, TensorError> {
    im2col_quant_on(chunk, filter, geom, input_q, strategy, None)
}

/// Run the quantizing im2col over one input chunk, split into spans of
/// whole pixels (the quantize pass) and whole patch rows (the patch
/// pass) on `pool` — see [`axtensor::pool::spans`].
///
/// Out-of-bounds taps quantize real 0, which the affine scheme represents
/// exactly as the zero-point — so padding contributes `β₁` to `Sp` and is
/// cancelled exactly by the Eq. 4 correction. Every span writes exactly
/// the bytes and sums the serial pass writes, and counts its own reads,
/// so the output and the modeled events do not depend on the pool.
///
/// # Errors
///
/// Propagates shape errors from [`ConvGeometry::output_shape`].
pub fn im2col_quant_on(
    chunk: &Tensor<f32>,
    filter: FilterShape,
    geom: ConvGeometry,
    input_q: QuantParams,
    strategy: PatchSumStrategy,
    pool: Option<&WorkerPool>,
) -> Result<KernelRun<QuantPatches>, TensorError> {
    let out = geom.output_shape(chunk.shape(), filter)?;
    let (pad_h, pad_w) = geom.pad_before(chunk.shape(), filter);
    let rows = out.n * out.h * out.w;
    let cols = filter.patch_len();
    let shape = chunk.shape();
    let c = shape.c;
    let zero_q = input_q.quantize(0.0);

    // Quantize every input element exactly once up front. Overlapping
    // patches re-read the same pixel up to `filter.h × filter.w` times;
    // replaying the divide/round/clamp chain per read is pure waste on the
    // host, and copying the precomputed byte (plus folding the precomputed
    // per-pixel channel-run sum, an exact i64 regrouping) is bit-identical
    // to quantizing in place. The modeled GPU event counts below stay on
    // the per-element-read accounting of the real kernel.
    let src = chunk.as_slice();
    let mut qbytes = vec![0u8; src.len()];
    let mut pixel_sums = vec![0i64; shape.n * shape.h * shape.w];
    let pixel_spans = spans(pool, pixel_sums.len(), c);
    let jobs: Vec<_> = split_spans(&mut qbytes, &pixel_spans, c)
        .into_iter()
        .zip(split_spans(&mut pixel_sums, &pixel_spans, 1))
        .zip(&pixel_spans)
        .map(|((bytes, sums), span)| {
            move || {
                for (p, sum_slot) in sums.iter_mut().enumerate() {
                    let pixel = span.start + p;
                    let mut s = 0i64;
                    for (&v, slot) in src[pixel * c..(pixel + 1) * c]
                        .iter()
                        .zip(&mut bytes[p * c..(p + 1) * c])
                    {
                        let q = input_q.quantize(v);
                        *slot = (q & 0xFF) as u8;
                        s += i64::from(q);
                    }
                    *sum_slot = s;
                }
            }
        })
        .collect();
    run_spans(pool, jobs);

    let mut data = vec![0u8; rows * cols];
    let mut sums = vec![0i64; rows];
    let row_spans = spans(pool, rows, cols);
    let (qbytes, pixel_sums) = (&qbytes, &pixel_sums);
    let jobs: Vec<_> = split_spans(&mut data, &row_spans, cols)
        .into_iter()
        .zip(split_spans(&mut sums, &row_spans, 1))
        .zip(&row_spans)
        .map(|((patches, patch_sums), span)| {
            move || {
                let mut in_bounds_reads = 0u64;
                for (r, sum_slot) in patch_sums.iter_mut().enumerate() {
                    let row = span.start + r;
                    let (n, oy, ox) = (row / (out.h * out.w), (row / out.w) % out.h, row % out.w);
                    let patch = &mut patches[r * cols..(r + 1) * cols];
                    let mut col = 0usize;
                    let mut sum = 0i64;
                    for ky in 0..filter.h {
                        let iy =
                            (oy * geom.stride.0 + ky * geom.dilation.0) as isize - pad_h as isize;
                        for kx in 0..filter.w {
                            let ix = (ox * geom.stride.1 + kx * geom.dilation.1) as isize
                                - pad_w as isize;
                            let inside = iy >= 0
                                && (iy as usize) < shape.h
                                && ix >= 0
                                && (ix as usize) < shape.w;
                            if inside {
                                in_bounds_reads += c as u64;
                                // NHWC: the channel run of one (n, y, x)
                                // pixel is contiguous — copy its
                                // pre-quantized bytes and fold its
                                // precomputed run sum (the real kernel's
                                // coalesced read).
                                let pixel = (n * shape.h + iy as usize) * shape.w + ix as usize;
                                patch[col..col + c]
                                    .copy_from_slice(&qbytes[pixel * c..(pixel + 1) * c]);
                                sum += pixel_sums[pixel];
                            } else {
                                patch[col..col + c].fill((zero_q & 0xFF) as u8);
                                sum += i64::from(zero_q) * c as i64;
                            }
                            col += c;
                        }
                    }
                    *sum_slot = sum;
                }
                in_bounds_reads
            }
        })
        .collect();
    let in_bounds_reads: u64 = run_spans(pool, jobs).into_iter().sum();

    let elements = (rows * cols) as u64;
    // Quantization work: one divide/round/clamp chain per element.
    let mut quant_ev = EventCounts::new();
    quant_ev.quant_ops = elements;

    // Patch extraction / data movement.
    let mut move_ev = EventCounts::new();
    move_ev.global_write_bytes = elements; // Mp is 1 byte/element
    move_ev.global_write_bytes += (rows * 8) as u64; // Sp vector
    match strategy {
        PatchSumStrategy::PrefixScan => {
            // Coalesced reads, one per in-bounds element.
            move_ev.global_read_bytes = in_bounds_reads * 4;
            // Prefix scan: stage + 2·log2(B) sweep accesses per element
            // amortize to ~3 shared ops per element.
            move_ev.shared_ops = elements * 3;
            // One atomicAdd per (block, patch) overlap: a block of
            // BLOCK_SIZE consecutive elements spans ceil(B/patch_len)+1
            // patch boundaries.
            let blocks = (rows * cols).div_ceil(BLOCK_SIZE) as u64;
            let per_block = (BLOCK_SIZE as u64).div_ceil(cols as u64) + 1;
            move_ev.atomic_ops = blocks * per_block;
        }
        PatchSumStrategy::PerPatchThread => {
            // One thread walks a whole patch: reads are uncoalesced; a
            // warp touches scattered addresses, so effective DRAM traffic
            // inflates (×4, a typical uncoalesced penalty).
            move_ev.global_read_bytes = in_bounds_reads * 4 * 4;
            // The serial per-thread sum is plain ALU work.
            move_ev.alu_ops = elements;
        }
    }

    Ok(KernelRun {
        output: QuantPatches {
            matrix: Matrix::from_vec(rows, cols, data).expect("sized above"),
            patch_sums: sums,
            out_shape: Shape4::new(out.n, out.h, out.w, filter.c_out),
        },
        events: vec![(Phase::Quantization, quant_ev), (Phase::Other, move_ev)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use axquant::{QuantRange, RoundMode};
    use axtensor::{rng, Padding};

    fn qparams(lo: f32, hi: f32) -> QuantParams {
        QuantParams::from_range(lo, hi, QuantRange::i8(), RoundMode::NearestEven)
    }

    #[test]
    fn bytes_match_host_quantization() {
        let t = rng::uniform(Shape4::new(1, 4, 4, 2), 9, -1.0, 1.0);
        let q = qparams(-1.0, 1.0);
        let run = im2col_quant(
            &t,
            FilterShape::new(1, 1, 2, 3),
            ConvGeometry::default(),
            q,
            PatchSumStrategy::PrefixScan,
        )
        .unwrap();
        // 1x1 kernel: patch r equals pixel r; check quantized bytes.
        for (i, &v) in t.as_slice().iter().enumerate() {
            let expect = (q.quantize(v) & 0xFF) as u8;
            assert_eq!(run.output.matrix.as_slice()[i], expect);
        }
    }

    #[test]
    fn patch_sums_are_logical_sums() {
        let t = rng::uniform(Shape4::new(1, 3, 3, 1), 4, -2.0, 2.0);
        let q = qparams(-2.0, 2.0);
        let run = im2col_quant(
            &t,
            FilterShape::new(3, 3, 1, 1),
            ConvGeometry::default().with_padding(Padding::Valid),
            q,
            PatchSumStrategy::PrefixScan,
        )
        .unwrap();
        let expect: i64 = t.as_slice().iter().map(|&v| i64::from(q.quantize(v))).sum();
        assert_eq!(run.output.patch_sums, vec![expect]);
    }

    #[test]
    fn padding_contributes_zero_point() {
        let t = Tensor::<f32>::full(Shape4::new(1, 1, 1, 1), 1.0);
        let q = qparams(-1.0, 1.0);
        let run = im2col_quant(
            &t,
            FilterShape::new(3, 3, 1, 1),
            ConvGeometry::default(), // SAME: 8 padded taps
            q,
            PatchSumStrategy::PrefixScan,
        )
        .unwrap();
        let zp = i64::from(q.quantize(0.0));
        let center = i64::from(q.quantize(1.0));
        assert_eq!(run.output.patch_sums[0], center + 8 * zp);
    }

    #[test]
    fn strategies_agree_functionally() {
        let t = rng::uniform(Shape4::new(2, 5, 5, 3), 1, -1.0, 1.0);
        let q = qparams(-1.0, 1.0);
        let a = im2col_quant(
            &t,
            FilterShape::new(3, 3, 3, 4),
            ConvGeometry::default(),
            q,
            PatchSumStrategy::PrefixScan,
        )
        .unwrap();
        let b = im2col_quant(
            &t,
            FilterShape::new(3, 3, 3, 4),
            ConvGeometry::default(),
            q,
            PatchSumStrategy::PerPatchThread,
        )
        .unwrap();
        assert_eq!(a.output.matrix, b.output.matrix);
        assert_eq!(a.output.patch_sums, b.output.patch_sums);
    }

    #[test]
    fn per_patch_strategy_reads_more_dram() {
        let t = rng::uniform(Shape4::new(1, 8, 8, 4), 2, -1.0, 1.0);
        let q = qparams(-1.0, 1.0);
        let scan = im2col_quant(
            &t,
            FilterShape::new(3, 3, 4, 8),
            ConvGeometry::default(),
            q,
            PatchSumStrategy::PrefixScan,
        )
        .unwrap()
        .total_events();
        let per = im2col_quant(
            &t,
            FilterShape::new(3, 3, 4, 8),
            ConvGeometry::default(),
            q,
            PatchSumStrategy::PerPatchThread,
        )
        .unwrap()
        .total_events();
        assert!(per.global_read_bytes > scan.global_read_bytes);
        assert_eq!(per.atomic_ops, 0);
        assert!(scan.atomic_ops > 0);
    }

    #[test]
    fn shape_errors_propagate() {
        let t = Tensor::<f32>::zeros(Shape4::new(1, 2, 2, 3));
        let q = qparams(-1.0, 1.0);
        assert!(im2col_quant(
            &t,
            FilterShape::new(3, 3, 4, 8), // channel mismatch
            ConvGeometry::default(),
            q,
            PatchSumStrategy::PrefixScan,
        )
        .is_err());
    }
}
