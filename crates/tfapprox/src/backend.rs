//! The three emulation backends of the approximate convolution.
//!
//! All backends compute the same function — the quantized convolution of
//! Eq. 4 with products taken from the multiplier LUT — and are
//! cross-validated in tests. Every runner consumes a [`PreparedFilter`]
//! plan (all layer-invariant quantization hoisted out), which
//! [`crate::AxConv2D`] builds once and caches; the runners differ in
//! *how* they compute:
//!
//! - [`run_cpu_direct`]: nested loops (ALWANN \[12\]), `i64` accumulation,
//!   no intermediate patch matrix;
//! - [`run_cpu_gemm_fused`]: Algorithm 1 on host threads — chunked
//!   quantizing im2col, LUT GEMM on the context's persistent worker pool,
//!   Eq. 4 correction — over a batch split into request segments, each
//!   with its own input quantization (a solo request is one segment);
//! - [`run_gpusim`]: Algorithm 1 on the simulated device — the paper's
//!   kernels with texture-cache LUT fetches and analytic cycle accounting.
//!
//! [`crate::AxConv2D::convolve_segmented`] is the one place that picks a
//! runner for the context's [`crate::Backend`].

use crate::accumulator::Accumulator;
use crate::kernel;
use crate::prepared::PreparedFilter;
use crate::{Backend, EmuContext, Error};
use axmult::MulLut;
use axquant::{FilterQuantization, QuantParams};
use axtensor::{ops::Filter, ConvGeometry, Matrix, SegmentTable, Shape4, Tensor};
use gpusim::kernels::gemm::approx_gemm;
use gpusim::kernels::im2col::{im2col_quant, im2col_quant_on, PatchSumStrategy};
use gpusim::kernels::minmax::reduction_events;
use gpusim::{Phase, PhaseProfile};
use std::borrow::Cow;
use std::time::Instant;

/// Everything a backend needs to run one approximate convolution.
#[derive(Debug, Clone)]
pub struct ConvSpec<'a> {
    /// The filter bank (f32; quantized inside the backend).
    pub filter: &'a Filter,
    /// Stride/dilation/padding.
    pub geometry: ConvGeometry,
    /// Optional per-output-channel bias, added after dequantization.
    pub bias: Option<&'a [f32]>,
    /// The approximate multiplier's truth table.
    pub lut: &'a MulLut,
    /// Input quantization (`α₁`, `β₁`), from the batch's min/max.
    pub input_q: QuantParams,
    /// Filter quantization (`α₂`, `β₂`), per-tensor or per-channel, from
    /// the weight range(s). A `Cow` so the layer can borrow the plan's
    /// resolved quantization instead of cloning it per call (the runners
    /// take the filter side from the plan; [`quantized_reference`] reads
    /// it).
    pub filter_q: Cow<'a, FilterQuantization>,
    /// Accumulator model of the emulated MAC (CPU backends; the GPU
    /// kernel accumulates in f32 like the paper's).
    pub accumulator: Accumulator,
}

/// Validate an input range before it feeds `ComputeCoeffs`: both ends
/// finite and not inverted. NaNs (from e.g. a poisoned activation tensor)
/// and `lo > hi` would otherwise flow silently into [`QuantParams`] and
/// produce garbage scales.
///
/// # Errors
///
/// Returns [`Error::Config`] for non-finite or inverted ranges.
pub fn validate_range(lo: f32, hi: f32) -> Result<(), Error> {
    if !lo.is_finite() || !hi.is_finite() || lo > hi {
        return Err(Error::Config(format!(
            "invalid input range [{lo}, {hi}]: bounds must be finite with lo <= hi"
        )));
    }
    Ok(())
}

fn apply_bias(mut out: Tensor<f32>, bias: Option<&[f32]>) -> Tensor<f32> {
    if let Some(b) = bias {
        let c = out.shape().c;
        // NHWC: the channel is the fastest-varying dimension, so each
        // pixel is one run of `c` values. The bias length is caller data —
        // guard it so a mis-sized bias cannot silently rotate through the
        // wrong channels.
        assert_eq!(
            b.len(),
            c,
            "bias length {} != output channel count {c}",
            b.len()
        );
        for pixel in out.as_mut_slice().chunks_exact_mut(c.max(1)) {
            for (v, &bias) in pixel.iter_mut().zip(b) {
                *v += bias;
            }
        }
    }
    out
}

/// Direct nested-loop emulation (the paper's approximate-CPU baseline):
/// only the input side is quantized per call, the filter side comes from
/// `plan`, which must have been built from `spec.filter` under
/// `spec.filter_q`.
///
/// When `use_lut` is false the inner multiplication uses native integer
/// arithmetic on the same quantized operands instead of the LUT fetch —
/// the difference in wall-clock between the two runs isolates the LUT
/// share for the Fig. 2 CPU breakdown.
///
/// # Errors
///
/// Propagates shape errors.
pub fn run_cpu_direct(
    input: &Tensor<f32>,
    spec: &ConvSpec<'_>,
    plan: &PreparedFilter,
    use_lut: bool,
) -> Result<(Tensor<f32>, PhaseProfile), Error> {
    let fs = spec.filter.shape();
    let out_shape = spec.geometry.output_shape(input.shape(), fs)?;
    let (pad_h, pad_w) = spec.geometry.pad_before(input.shape(), fs);
    let shape = input.shape();
    let mut profile = PhaseProfile::new();

    // --- Input quantization (logical values); the filter side comes
    // pre-quantized from the plan.
    let t0 = Instant::now();
    let q_in: Vec<i32> = input
        .as_slice()
        .iter()
        .map(|&v| spec.input_q.quantize(v))
        .collect();
    let zero_q = spec.input_q.quantize(0.0);
    profile.add(Phase::Quantization, t0.elapsed().as_secs_f64());
    let col_q = plan.col_q();
    let q_f = plan.q_logical();
    let sf = plan.sf();

    // --- The convolution loops.
    let t1 = Instant::now();
    let b1 = i64::from(spec.input_q.zero_point());
    let a1 = f64::from(spec.input_q.scale());
    let n_taps = fs.patch_len() as i64;
    let mut out = Tensor::<f32>::zeros(out_shape);
    for n in 0..out_shape.n {
        for oy in 0..out_shape.h {
            for ox in 0..out_shape.w {
                // Patch sum Sp for this output position.
                let mut sp = 0i64;
                let mut taps: Vec<i32> = Vec::with_capacity(fs.patch_len());
                for ky in 0..fs.h {
                    let iy = (oy * spec.geometry.stride.0 + ky * spec.geometry.dilation.0) as isize
                        - pad_h as isize;
                    for kx in 0..fs.w {
                        let ix = (ox * spec.geometry.stride.1 + kx * spec.geometry.dilation.1)
                            as isize
                            - pad_w as isize;
                        let inside = iy >= 0
                            && (iy as usize) < shape.h
                            && ix >= 0
                            && (ix as usize) < shape.w;
                        for ci in 0..fs.c_in {
                            let q = if inside {
                                q_in[shape.index(n, iy as usize, ix as usize, ci)]
                            } else {
                                zero_q
                            };
                            sp += i64::from(q);
                            taps.push(q);
                        }
                    }
                }
                for co in 0..fs.c_out {
                    let b2 = i64::from(col_q[co].zero_point());
                    let a1a2 = a1 * f64::from(col_q[co].scale());
                    let mut acc = 0i64;
                    let mut tap = 0usize;
                    for ky in 0..fs.h {
                        for kx in 0..fs.w {
                            for ci in 0..fs.c_in {
                                let i_val = taps[tap];
                                tap += 1;
                                let f_val = q_f[fs.index(ky, kx, ci, co)];
                                let prod = if use_lut {
                                    i64::from(spec.lut.product(i_val, f_val))
                                } else {
                                    i64::from(i_val) * i64::from(f_val)
                                };
                                acc = spec.accumulator.add(acc, prod);
                            }
                        }
                    }
                    let corrected = acc - b2 * sp - b1 * sf[co] + n_taps * b1 * b2;
                    *out.at_mut(n, oy, ox, co) = (a1a2 * corrected as f64) as f32;
                }
            }
        }
    }
    // The monolithic loop interleaves lookup and accumulation; attribute
    // it to the LUT phase when the LUT is in use (callers isolate the true
    // LUT share by differencing against a `use_lut = false` run).
    profile.add(
        if use_lut {
            Phase::LutLookup
        } else {
            Phase::Other
        },
        t1.elapsed().as_secs_f64(),
    );
    Ok((apply_bias(out, spec.bias), profile))
}

/// Concatenate per-chunk (or per-segment) outputs along the batch axis,
/// moving a lone part instead of copying it.
fn concat_parts(mut parts: Vec<Tensor<f32>>) -> Result<Tensor<f32>, Error> {
    if parts.len() == 1 {
        return Ok(parts.pop().expect("one part"));
    }
    Ok(Tensor::concat_batch(&parts)?)
}

/// Run `run` on every non-empty segment of a non-empty batch, each under
/// its own input quantization, and concatenate the outputs. A segment
/// spanning the whole batch is run on `input` itself and its output
/// returned as is, so a solo request costs no copy.
pub(crate) fn run_per_segment(
    input: &Tensor<f32>,
    spec: &ConvSpec<'_>,
    seg_q: &[QuantParams],
    segments: &SegmentTable,
    mut run: impl FnMut(&Tensor<f32>, &ConvSpec<'_>) -> Result<(Tensor<f32>, PhaseProfile), Error>,
) -> Result<(Tensor<f32>, PhaseProfile), Error> {
    let mut parts: Vec<Tensor<f32>> = Vec::new();
    let mut profile = PhaseProfile::new();
    for (s, (start, end)) in segments.iter().enumerate() {
        if start == end {
            continue;
        }
        let seg_spec = ConvSpec {
            input_q: seg_q[s],
            ..spec.clone()
        };
        let (part, part_profile) = if end - start == input.shape().n {
            run(input, &seg_spec)?
        } else {
            run(&input.batch_slice(start, end - start), &seg_spec)?
        };
        parts.push(part);
        profile.merge(&part_profile);
    }
    Ok((concat_parts(parts)?, profile))
}

/// Optimized host-side Algorithm 1 over a batch split into request
/// segments: per chunk, quantizing im2col and **one** segmented LUT GEMM
/// on `ctx`'s persistent worker pool, on `ctx`'s kernel arm and tile
/// shape. A solo request is the one-segment table
/// ([`SegmentTable::single`]).
///
/// `segments` partitions the batch axis into request spans and `seg_q`
/// gives each span its own input quantization (from its own observers);
/// `spec.input_q` is ignored. Each chunk is intersected with the segment
/// spans, every resulting piece is im2col-quantized under its segment's
/// params — byte-identical to the patches a solo run of that request
/// produces — and the pieces run as one tiled GEMM whose epilogue picks
/// the owning segment's Eq. 4 constants per row. Since every output row
/// depends only on its own patch bytes, its segment's params, and the
/// fixed ascending-`k` fold order, the result is bit-identical to running
/// each request alone and concatenating, for any chunk size, tile shape,
/// thread count, and accumulator model. A chunk holding a single piece
/// hands its patch buffers to the GEMM without copying them. `plan` must
/// have been built from `spec.filter` under `spec.filter_q`.
///
/// A zero-batch input returns a correctly-shaped empty output.
///
/// # Errors
///
/// Returns [`Error::Config`] if the segment table does not cover
/// exactly the batch or `seg_q` does not cover exactly the segments;
/// propagates shape errors.
pub fn run_cpu_gemm_fused(
    input: &Tensor<f32>,
    spec: &ConvSpec<'_>,
    seg_q: &[QuantParams],
    segments: &SegmentTable,
    plan: &PreparedFilter,
    ctx: &EmuContext,
) -> Result<(Tensor<f32>, PhaseProfile), Error> {
    let fs = spec.filter.shape();
    let mut profile = PhaseProfile::new();
    let out_shape = spec.geometry.output_shape(input.shape(), fs)?;
    let n = input.shape().n;
    if segments.total() != n || seg_q.len() != segments.len() {
        return Err(Error::Config(format!(
            "fused batch of {n} images: segment table covers {} images with {} \
             segments but {} input-quantization sets were supplied",
            segments.total(),
            segments.len(),
            seg_q.len()
        )));
    }
    if n == 0 {
        return Ok((apply_bias(Tensor::zeros(out_shape), spec.bias), profile));
    }

    let chunk_size = ctx.chunk_size();
    let k = fs.patch_len();

    let mut parts: Vec<Tensor<f32>> = Vec::new();
    let mut start = 0usize;
    while start < n {
        let count = chunk_size.min(n - start);

        // Intersect the chunk with the request spans: each piece is
        // im2col-quantized under its own segment's params, then all
        // pieces run as one segmented GEMM.
        let t1 = Instant::now();
        let mut pieces: Vec<(Matrix<u8>, Vec<i64>)> = Vec::new();
        let mut piece_q: Vec<QuantParams> = Vec::new();
        for (s, (seg_start, seg_end)) in segments.iter().enumerate() {
            let lo = seg_start.max(start);
            let hi = seg_end.min(start + count);
            if lo >= hi {
                continue;
            }
            // A piece covering the whole batch reads `input` in place.
            let piece = if hi - lo == n {
                Cow::Borrowed(input)
            } else {
                Cow::Owned(input.batch_slice(lo, hi - lo))
            };
            let patches = im2col_quant_on(
                &piece,
                fs,
                spec.geometry,
                seg_q[s],
                PatchSumStrategy::PrefixScan,
                Some(ctx.pool()),
            )?
            .output;
            pieces.push((patches.matrix, patches.patch_sums));
            piece_q.push(seg_q[s]);
        }
        let row_table =
            SegmentTable::from_counts(&pieces.iter().map(|(m, _)| m.rows()).collect::<Vec<_>>());
        let (matrix, sums) = if pieces.len() == 1 {
            pieces.pop().expect("one piece")
        } else {
            let mut bytes: Vec<u8> = Vec::with_capacity(row_table.total() * k);
            let mut sums: Vec<i64> = Vec::with_capacity(row_table.total());
            for (m, s) in &pieces {
                bytes.extend_from_slice(m.as_slice());
                sums.extend_from_slice(s);
            }
            (Matrix::from_vec(sums.len(), k, bytes)?, sums)
        };
        profile.add(Phase::Other, t1.elapsed().as_secs_f64());

        // One fused, blocked LUT GEMM for the whole chunk, on the
        // context's kernel arm (bit-identical whichever arm runs).
        let t2 = Instant::now();
        let out_buf = kernel::dispatch::lut_gemm_dispatch_seg(
            ctx.kernel(),
            &matrix,
            &sums,
            plan,
            &piece_q,
            &row_table,
            spec.lut,
            spec.accumulator,
            ctx.tile_config(),
            ctx.pool(),
        );
        profile.add(Phase::LutLookup, t2.elapsed().as_secs_f64());

        parts.push(Tensor::from_vec(
            Shape4::new(count, out_shape.h, out_shape.w, out_shape.c),
            out_buf,
        )?);
        start += count;
    }
    Ok((apply_bias(concat_parts(parts)?, spec.bias), profile))
}

/// Algorithm 1 on the simulated GPU: the paper's proposal.
///
/// Functional results come from the [`gpusim`] kernels; the profile holds
/// *modeled* seconds derived from the kernels' event counts under the
/// context's device calibration. The min/max reductions the transformed
/// graph performs per batch are also charged here (they run on the device
/// in the paper's implementation). The device kernels consume the plan's
/// quantized filter bytes directly, so no chunk ever re-quantizes the
/// filter bank; `plan` must have been built from `spec.filter` under
/// `spec.filter_q`.
///
/// A zero-batch input returns a correctly-shaped empty output.
///
/// # Errors
///
/// Propagates shape errors.
pub fn run_gpusim(
    input: &Tensor<f32>,
    spec: &ConvSpec<'_>,
    plan: &PreparedFilter,
    ctx: &EmuContext,
) -> Result<(Tensor<f32>, PhaseProfile), Error> {
    let fs = spec.filter.shape();
    let dev = ctx.device();
    let mut profile = PhaseProfile::new();

    // Min/max reductions over the input (the inserted Min/Max nodes).
    profile.add(
        Phase::Quantization,
        dev.seconds(&reduction_events(input.shape().len())),
    );

    let out_shape = spec.geometry.output_shape(input.shape(), fs)?;
    let n = input.shape().n;
    if n == 0 {
        return Ok((apply_bias(Tensor::zeros(out_shape), spec.bias), profile));
    }

    let mut parts: Vec<Tensor<f32>> = Vec::new();
    let mut start = 0usize;
    while start < n {
        let count = ctx.chunk_size().min(n - start);
        // One chunk covering the whole batch reads `input` in place.
        let chunk = if count == n {
            Cow::Borrowed(input)
        } else {
            Cow::Owned(input.batch_slice(start, count))
        };
        let im2col = im2col_quant(
            &chunk,
            fs,
            spec.geometry,
            spec.input_q,
            PatchSumStrategy::PrefixScan,
        )?;
        for (phase, ev) in &im2col.events {
            profile.add(*phase, dev.seconds(ev));
            ctx.record_events(ev);
        }
        let patches = im2col.output;

        let gemm = ctx.with_cache(|cache| {
            approx_gemm(
                &patches.matrix,
                &patches.patch_sums,
                plan.f_bytes(),
                plan.sf(),
                plan.col_q(),
                spec.input_q,
                spec.lut,
                cache,
            )
        })?;
        for (phase, ev) in &gemm.events {
            profile.add(*phase, dev.seconds(ev));
            ctx.record_events(ev);
        }
        parts.push(Tensor::from_vec(patches.out_shape, gemm.output.into_vec())?);
        start += count;
    }
    Ok((apply_bias(concat_parts(parts)?, spec.bias), profile))
}

/// The one-off cost of building `plan`, as the context's backend charges
/// it to the Quantization phase: the measured `build_s` wall-clock on the
/// host backends, the modeled filter quantization on the simulated GPU
/// (whose events are also recorded into `ctx`).
pub(crate) fn plan_build_profile(
    plan: &PreparedFilter,
    build_s: f64,
    ctx: &EmuContext,
) -> PhaseProfile {
    let mut profile = PhaseProfile::new();
    match ctx.backend() {
        Backend::CpuDirect | Backend::CpuGemm => profile.add(Phase::Quantization, build_s),
        Backend::GpuSim => {
            let ev = plan.quant_events();
            profile.add(Phase::Quantization, ctx.device().seconds(&ev));
            ctx.record_events(&ev);
        }
    }
    profile
}

/// Build a quantized reference output with exact arithmetic (quantize →
/// integer convolution → dequantize) — what TensorFlow's fake-quant path
/// computes. `AxConv2D` with an **exact** LUT must match this bit-for-bit
/// up to accumulator rounding; the paper: "the accuracy is the same as if
/// we use the quantization followed by dequantization available in
/// TensorFlow".
///
/// # Errors
///
/// Propagates shape errors.
pub fn quantized_reference(input: &Tensor<f32>, spec: &ConvSpec<'_>) -> Result<Tensor<f32>, Error> {
    let exact = MulLut::exact(spec.lut.signedness());
    let spec_exact = ConvSpec {
        lut: &exact,
        ..spec.clone()
    };
    let plan = PreparedFilter::from_filter(spec.filter, &spec.filter_q);
    let (out, _) = run_cpu_direct(input, &spec_exact, &plan, false)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmult::Signedness;
    use axquant::{QuantRange, RoundMode};
    use axtensor::{rng, FilterShape, Padding};

    fn spec<'a>(filter: &'a Filter, lut: &'a MulLut, geom: ConvGeometry) -> ConvSpec<'a> {
        ConvSpec {
            filter,
            geometry: geom,
            bias: None,
            lut,
            input_q: QuantParams::from_range(-1.0, 1.0, QuantRange::i8(), RoundMode::NearestEven),
            filter_q: Cow::Owned(
                QuantParams::from_range(-0.5, 0.5, QuantRange::i8(), RoundMode::NearestEven).into(),
            ),
            accumulator: Accumulator::Exact,
        }
    }

    /// The plan every runner in these tests consumes.
    fn plan_of(s: &ConvSpec<'_>) -> PreparedFilter {
        PreparedFilter::from_filter(s.filter, &s.filter_q)
    }

    /// The host GEMM on one request: a one-segment fused call.
    fn gemm_solo(input: &Tensor<f32>, s: &ConvSpec<'_>, ctx: &EmuContext) -> Tensor<f32> {
        let table = SegmentTable::single(input.shape().n);
        run_cpu_gemm_fused(input, s, &[s.input_q], &table, &plan_of(s), ctx)
            .unwrap()
            .0
    }

    fn direct(input: &Tensor<f32>, s: &ConvSpec<'_>) -> Tensor<f32> {
        run_cpu_direct(input, s, &plan_of(s), true).unwrap().0
    }

    fn gpusim(input: &Tensor<f32>, s: &ConvSpec<'_>, ctx: &EmuContext) -> Tensor<f32> {
        run_gpusim(input, s, &plan_of(s), ctx).unwrap().0
    }

    fn close(a: &Tensor<f32>, b: &Tensor<f32>, tol: f32) -> bool {
        a.max_abs_diff(b).unwrap() <= tol
    }

    #[test]
    fn all_backends_agree_with_exact_lut() {
        let input = rng::uniform(Shape4::new(3, 7, 6, 3), 1, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 3, 5), 2, -0.5, 0.5);
        let lut = MulLut::exact(Signedness::Signed);
        for geom in [
            ConvGeometry::default(),
            ConvGeometry::default().with_stride(2),
            ConvGeometry::default().with_padding(Padding::Valid),
        ] {
            let s = spec(&filter, &lut, geom);
            let cpu = direct(&input, &s);
            let gemm_ctx = EmuContext::new(Backend::CpuGemm)
                .with_chunk_size(2)
                .unwrap();
            let gemm = gemm_solo(&input, &s, &gemm_ctx);
            let ctx = EmuContext::new(Backend::GpuSim).with_chunk_size(2).unwrap();
            let gpu = gpusim(&input, &s, &ctx);
            assert!(close(&cpu, &gemm, 1e-4), "direct vs gemm, {geom:?}");
            assert!(close(&cpu, &gpu, 1e-2), "direct vs gpu, {geom:?}");
        }
    }

    #[test]
    fn backends_agree_with_approximate_lut() {
        let input = rng::uniform(Shape4::new(2, 6, 6, 2), 3, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 4), 4, -0.5, 0.5);
        let bam = axmult::catalog::by_name("mul8s_bam_v8h0").unwrap();
        let s = spec(&filter, bam.lut(), ConvGeometry::default());
        let cpu = direct(&input, &s);
        let gemm_ctx = EmuContext::new(Backend::CpuGemm)
            .with_chunk_size(1)
            .unwrap();
        let gemm = gemm_solo(&input, &s, &gemm_ctx);
        let gpu = gpusim(&input, &s, &EmuContext::new(Backend::GpuSim));
        assert!(close(&cpu, &gemm, 1e-4));
        assert!(close(&cpu, &gpu, 1e-2));
    }

    #[test]
    fn zero_batch_returns_shaped_empty_output() {
        let input = Tensor::<f32>::zeros(Shape4::new(0, 6, 6, 2));
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 4), 19, -0.5, 0.5);
        let lut = MulLut::exact(Signedness::Signed);
        let bias = [0.5f32, -0.5, 1.0, 0.0];
        let mut s = spec(&filter, &lut, ConvGeometry::default());
        s.bias = Some(&bias);
        let expect = Shape4::new(0, 6, 6, 4);
        for out in [
            direct(&input, &s),
            gemm_solo(&input, &s, &EmuContext::new(Backend::CpuGemm)),
            gpusim(&input, &s, &EmuContext::new(Backend::GpuSim)),
        ] {
            assert_eq!(out.shape(), expect);
            assert!(out.as_slice().is_empty());
        }
    }

    #[test]
    fn fused_gemm_is_per_request_runs_chained() {
        // The fused runner must be bit-identical to running each segment
        // alone (with its own params, as a one-segment call) and
        // concatenating — across chunk sizes that split requests and
        // accumulator models, with an empty segment in the mix.
        let input = rng::uniform(Shape4::new(7, 6, 6, 2), 51, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 3), 52, -0.5, 0.5);
        let lut = MulLut::exact(Signedness::Signed);
        let segments = SegmentTable::from_counts(&[2, 0, 4, 1]);
        let seg_q: Vec<QuantParams> = segments
            .iter()
            .map(|(a, b)| {
                let (lo, hi) = axtensor::ops::min_max(&input.batch_slice(a, b - a));
                QuantParams::from_range(lo, hi, QuantRange::i8(), RoundMode::NearestEven)
            })
            .collect();
        let bias = [0.25f32, -0.5, 0.125];
        for accumulator in [Accumulator::Exact, Accumulator::Saturating(12)] {
            for chunk in [1, 3, 16] {
                let ctx = EmuContext::new(Backend::CpuGemm)
                    .with_chunk_size(chunk)
                    .unwrap();
                let mut s = spec(&filter, &lut, ConvGeometry::default());
                s.bias = Some(&bias);
                s.accumulator = accumulator;
                let (fused, _) =
                    run_cpu_gemm_fused(&input, &s, &seg_q, &segments, &plan_of(&s), &ctx).unwrap();
                let mut parts = Vec::new();
                for (i, (a, b)) in segments.iter().enumerate() {
                    let mut solo = s.clone();
                    solo.input_q = seg_q[i];
                    parts.push(gemm_solo(&input.batch_slice(a, b - a), &solo, &ctx));
                }
                let chained = Tensor::concat_batch(&parts).unwrap();
                assert_eq!(fused, chained, "{accumulator:?} chunk {chunk}");
            }
        }
    }

    #[test]
    fn fused_gemm_rejects_mismatched_segments() {
        let input = rng::uniform(Shape4::new(3, 6, 6, 2), 53, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 3), 54, -0.5, 0.5);
        let lut = MulLut::exact(Signedness::Signed);
        let s = spec(&filter, &lut, ConvGeometry::default());
        let ctx = EmuContext::new(Backend::CpuGemm);
        let err = run_cpu_gemm_fused(
            &input,
            &s,
            &[s.input_q],
            &SegmentTable::from_counts(&[2]),
            &plan_of(&s),
            &ctx,
        )
        .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    #[test]
    fn range_validation_rejects_nan_and_inverted() {
        assert!(validate_range(-1.0, 1.0).is_ok());
        assert!(validate_range(0.0, 0.0).is_ok());
        assert!(validate_range(f32::NAN, 1.0).is_err());
        assert!(validate_range(-1.0, f32::NAN).is_err());
        assert!(validate_range(f32::NEG_INFINITY, 1.0).is_err());
        assert!(validate_range(-1.0, f32::INFINITY).is_err());
        assert!(validate_range(1.0, -1.0).is_err());
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn mis_sized_bias_is_rejected() {
        let out = Tensor::<f32>::zeros(Shape4::new(1, 2, 2, 3));
        let bias = [1.0f32, 2.0]; // 2 entries for 3 channels
        let _ = apply_bias(out, Some(&bias));
    }

    #[test]
    fn exact_lut_matches_quantized_reference() {
        let input = rng::uniform(Shape4::new(2, 8, 8, 3), 5, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 3, 4), 6, -0.5, 0.5);
        let lut = MulLut::exact(Signedness::Signed);
        let s = spec(&filter, &lut, ConvGeometry::default());
        let reference = quantized_reference(&input, &s).unwrap();
        assert!(close(&direct(&input, &s), &reference, 1e-5));
    }

    #[test]
    fn quantization_error_bounded_vs_float_conv() {
        // The approximate layer "produces a single floating-point output
        // which has the same range as ... the original convolutional
        // layer"; with an exact LUT the only deviation is quantization
        // noise.
        let input = rng::uniform(Shape4::new(1, 8, 8, 3), 7, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 3, 4), 8, -0.5, 0.5);
        let lut = MulLut::exact(Signedness::Signed);
        let s = spec(&filter, &lut, ConvGeometry::default());
        let out = direct(&input, &s);
        let float_ref = axtensor::ops::conv2d_direct(&input, &filter, s.geometry).unwrap();
        // 27-tap dot product of 8-bit quantized values: error stays well
        // below the combined quantization steps.
        let bound = 27.0 * (s.input_q.scale() + s.filter_q.for_channel(0).scale());
        assert!(
            out.max_abs_diff(&float_ref).unwrap() < bound,
            "diff {} vs bound {bound}",
            out.max_abs_diff(&float_ref).unwrap()
        );
    }

    #[test]
    fn chunking_is_transparent() {
        let input = rng::uniform(Shape4::new(5, 6, 6, 2), 9, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 3), 10, -0.5, 0.5);
        let lut = MulLut::exact(Signedness::Signed);
        let s = spec(&filter, &lut, ConvGeometry::default());
        let one_ctx = EmuContext::new(Backend::CpuGemm)
            .with_chunk_size(5)
            .unwrap();
        let many_ctx = EmuContext::new(Backend::CpuGemm)
            .with_chunk_size(1)
            .unwrap();
        assert!(close(
            &gemm_solo(&input, &s, &one_ctx),
            &gemm_solo(&input, &s, &many_ctx),
            1e-6
        ));
    }

    #[test]
    fn bias_applied_after_dequantization() {
        let input = Tensor::<f32>::zeros(Shape4::new(1, 2, 2, 1));
        let filter = rng::uniform_filter(FilterShape::new(1, 1, 1, 2), 11, -0.5, 0.5);
        let lut = MulLut::exact(Signedness::Signed);
        let bias = [1.0f32, -2.0];
        let mut s = spec(&filter, &lut, ConvGeometry::default());
        s.bias = Some(&bias);
        for px in direct(&input, &s).as_slice().chunks(2) {
            assert!((px[0] - 1.0).abs() < 1e-6);
            assert!((px[1] + 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn gpusim_profile_attributes_lut_phase() {
        let input = rng::uniform(Shape4::new(1, 6, 6, 2), 13, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 4), 14, -0.5, 0.5);
        let lut = MulLut::exact(Signedness::Signed);
        let s = spec(&filter, &lut, ConvGeometry::default());
        let ctx = EmuContext::new(Backend::GpuSim);
        let (_, profile) = run_gpusim(&input, &s, &plan_of(&s), &ctx).unwrap();
        assert!(profile.seconds(Phase::LutLookup) > 0.0);
        assert!(profile.seconds(Phase::Quantization) > 0.0);
        assert!(profile.seconds(Phase::Other) > 0.0);
    }
}
