//! The approximate 2D convolution operator.

use crate::accumulator::Accumulator;
use crate::backend::{self, ConvSpec};
use crate::prepared::PreparedFilter;
use crate::{Backend, EmuContext, Error};
use axmult::{AxMultiplier, MulLut, Signedness};
use axnn::layer::{check_arity, Layer};
use axnn::layers::Conv2D;
use axnn::NnError;
use axquant::{FilterQuantization, QuantParams, QuantRange, RoundMode};
use axtensor::{ops, ConvGeometry, Filter, SegmentTable, Shape4, Tensor};
use gpusim::PhaseProfile;
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// `AxConv2D`: the drop-in approximate replacement for `Conv2D`.
///
/// "The approximate layer reads two floating-point inputs and produces a
/// single floating-point output which has the same range as if we use the
/// original convolutional layer." Besides the activation tensor it
/// consumes two scalar range inputs (`Min`, `Max` — inserted by the graph
/// transform of Fig. 1); the filter range is known statically from the
/// weights. Internally the layer quantizes per Eq. 1, multiplies through
/// the multiplier LUT, and dequantizes with the Eq. 4 correction, running
/// on the backend selected by its shared [`EmuContext`].
#[derive(Debug, Clone)]
pub struct AxConv2D {
    filter: Filter,
    geometry: ConvGeometry,
    bias: Option<Vec<f32>>,
    lut: MulLut,
    mult_name: String,
    round: RoundMode,
    filter_range: (f32, f32),
    per_channel: bool,
    accumulator: Accumulator,
    ctx: Arc<EmuContext>,
    /// The prepared-execution plan, built lazily on first forward and
    /// invalidated by builder mutations that change filter quantization.
    plan: OnceLock<Arc<PreparedFilter>>,
}

impl AxConv2D {
    /// Create from parts.
    #[must_use]
    pub fn new(filter: Filter, geometry: ConvGeometry, lut: MulLut, ctx: Arc<EmuContext>) -> Self {
        let filter_range = ops::min_max_slice(filter.as_slice());
        AxConv2D {
            filter,
            geometry,
            bias: None,
            lut,
            mult_name: "custom".to_owned(),
            round: RoundMode::NearestEven,
            filter_range,
            per_channel: false,
            accumulator: Accumulator::Exact,
            ctx,
            plan: OnceLock::new(),
        }
    }

    /// Build the approximate variant of an existing accurate convolution —
    /// the per-layer step of the paper's design flow.
    #[must_use]
    pub fn from_conv2d(conv: &Conv2D, mult: &AxMultiplier, ctx: Arc<EmuContext>) -> Self {
        let mut ax = AxConv2D::new(
            conv.filter().clone(),
            conv.geometry(),
            mult.lut().clone(),
            ctx,
        );
        ax.mult_name = mult.name().to_owned();
        ax.bias = conv.bias().map(<[f32]>::to_vec);
        ax
    }

    /// Set the rounding mode applied during quantization.
    #[must_use]
    pub fn with_round_mode(mut self, round: RoundMode) -> Self {
        self.round = round;
        self.plan = OnceLock::new(); // rounding changes the quantized plan
        self
    }

    /// Quantize the filter bank per output channel instead of per tensor
    /// (TensorFlow's per-channel weight quantization) — each filter gets
    /// its own `(α₂, β₂)` from its own weight range, reducing
    /// quantization error for banks with uneven per-filter magnitudes.
    #[must_use]
    pub fn with_per_channel_filter_quant(mut self) -> Self {
        self.per_channel = true;
        self.plan = OnceLock::new(); // quantization flavour changes the plan
        self
    }

    /// Whether filter quantization is per output channel.
    #[must_use]
    pub fn is_per_channel(&self) -> bool {
        self.per_channel
    }

    /// Set the MAC accumulator model (CPU backends): explore
    /// accumulator-width reduction, a further approximation knob of the
    /// emulated accelerator.
    #[must_use]
    pub fn with_accumulator(mut self, accumulator: Accumulator) -> Self {
        self.accumulator = accumulator;
        self
    }

    /// Attach a per-output-channel bias.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the output channel count.
    #[must_use]
    pub fn with_bias(mut self, bias: Vec<f32>) -> Self {
        assert_eq!(bias.len(), self.filter.shape().c_out);
        self.bias = Some(bias);
        self
    }

    /// Name of the emulated multiplier.
    #[must_use]
    pub fn multiplier_name(&self) -> &str {
        &self.mult_name
    }

    /// The quantized integer range implied by the multiplier's signedness
    /// ("\[-128, 127\] for signed, \[0, 255\] for unsigned multipliers").
    #[must_use]
    pub fn quant_range(&self) -> QuantRange {
        match self.lut.signedness() {
            Signedness::Signed => QuantRange::i8(),
            Signedness::Unsigned => QuantRange::u8(),
        }
    }

    /// The shared emulation context.
    #[must_use]
    pub fn context(&self) -> &Arc<EmuContext> {
        &self.ctx
    }

    fn filter_quantization(&self) -> FilterQuantization {
        let range = self.quant_range();
        if self.per_channel {
            let fs = self.filter.shape();
            // HWCF layout invariant (see `axtensor::ops::Filter`): c_out
            // is the fastest-varying dimension, so flat index i belongs to
            // channel i % c_out. `Filter::from_vec` guarantees the buffer
            // length matches the shape exactly.
            debug_assert!(
                self.filter.as_slice().len().is_multiple_of(fs.c_out.max(1)),
                "filter buffer is not a whole number of channel groups"
            );
            let mut ranges = vec![(f32::INFINITY, f32::NEG_INFINITY); fs.c_out];
            for (i, &w) in self.filter.as_slice().iter().enumerate() {
                let c = i % fs.c_out;
                ranges[c].0 = ranges[c].0.min(w);
                ranges[c].1 = ranges[c].1.max(w);
            }
            FilterQuantization::from_channel_ranges(&ranges, range, self.round)
        } else {
            QuantParams::from_range(self.filter_range.0, self.filter_range.1, range, self.round)
                .into()
        }
    }

    /// Build the per-call spec against an existing plan. The filter-side
    /// quantization is borrowed from the plan instead of re-derived via
    /// [`Self::filter_quantization`], which for per-channel layers
    /// rescans every filter tap — per-call work this engine exists to
    /// hoist. (The runners take the filter side from the plan anyway;
    /// `spec.filter_q` only has to stay consistent with it.)
    fn spec_with_plan<'a>(
        &'a self,
        plan: &'a PreparedFilter,
        input_q: QuantParams,
    ) -> ConvSpec<'a> {
        ConvSpec {
            filter: &self.filter,
            geometry: self.geometry,
            bias: self.bias.as_deref(),
            lut: &self.lut,
            input_q,
            filter_q: Cow::Borrowed(plan.filter_quantization()),
            accumulator: self.accumulator,
        }
    }

    /// The cached prepared-execution plan, building it if necessary. The
    /// second element carries the build cost (wall-clock for CPU
    /// backends, modeled device seconds for the simulated GPU) exactly
    /// once — `None` on every call after the first.
    fn plan(&self) -> (Arc<PreparedFilter>, Option<PhaseProfile>) {
        let mut built = None;
        let plan = self.plan.get_or_init(|| {
            let t0 = Instant::now();
            let plan = PreparedFilter::from_filter(&self.filter, &self.filter_quantization());
            built = Some(backend::plan_build_profile(
                &plan,
                t0.elapsed().as_secs_f64(),
                &self.ctx,
            ));
            Arc::new(plan)
        });
        (Arc::clone(plan), built)
    }

    /// Reject filter banks whose weights would bake NaN/Inf-derived
    /// coefficients into a cached plan. `filter_range` comes from the
    /// NaN-propagating min/max scan, so this check is O(1).
    fn validate_filter_weights(&self) -> Result<(), Error> {
        if !self.filter_range.0.is_finite() || !self.filter_range.1.is_finite() {
            return Err(Error::Config(
                "filter weights contain non-finite values".to_owned(),
            ));
        }
        Ok(())
    }

    /// Eagerly build the prepared-execution plan (normally built lazily on
    /// the first forward), recording its one-off quantization cost into
    /// the context profile. Idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the filter weights are non-finite
    /// (the same guard the forward path enforces).
    pub fn prepare(&self) -> Result<(), Error> {
        self.validate_filter_weights()?;
        let (_, built) = self.plan();
        if let Some(profile) = built {
            self.ctx.record(&profile);
        }
        Ok(())
    }

    /// Whether the prepared-execution plan has been built.
    #[must_use]
    pub fn is_prepared(&self) -> bool {
        self.plan.get().is_some()
    }

    /// The cached plan, if already built (no build is triggered).
    pub(crate) fn cached_plan(&self) -> Option<Arc<PreparedFilter>> {
        self.plan.get().cloned()
    }

    /// Seed the plan cache with an already-built plan from an equivalent
    /// layer — the session `reassign` fast path. The caller must
    /// guarantee the donor layer had the same filter and the same
    /// quantization flavour (range, rounding, per-channel setting);
    /// under the session API that holds whenever the two multipliers
    /// share a signedness. No-op if a plan is already cached.
    pub(crate) fn seed_plan(&self, plan: Arc<PreparedFilter>) {
        let _ = self.plan.set(plan);
    }

    /// Convolve with the input range supplied by the caller (the Fig. 1
    /// `Min`/`Max` scalars): a one-segment [`Self::convolve_segmented`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for a non-finite or inverted input
    /// range or a filter bank with non-finite weights; propagates shape
    /// errors.
    pub fn convolve_with_range(
        &self,
        input: &Tensor<f32>,
        lo: f32,
        hi: f32,
    ) -> Result<Tensor<f32>, Error> {
        self.convolve_segmented(input, &[(lo, hi)], &SegmentTable::single(input.shape().n))
    }

    /// Convolve, computing the input range internally (standalone use
    /// outside a transformed graph).
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn convolve(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, Error> {
        let (lo, hi) = ops::min_max(input);
        self.convolve_with_range(input, lo, hi)
    }

    /// Convolve a batch split into request segments, with one input range
    /// per segment (the segmented Fig. 1 observers' outputs) — the one
    /// execution path of the layer; a solo request is one segment.
    ///
    /// Bit-identical to convolving each segment alone with its own range
    /// and concatenating. On the host-GEMM backend the whole batch runs as
    /// one segmented GEMM per chunk ([`backend::run_cpu_gemm_fused`]); the
    /// other backends run per segment and concatenate, which is the
    /// identity by construction.
    ///
    /// A zero-image batch builds (and charges) nothing — in particular not
    /// the one-off plan, which would otherwise make a zero-image run report
    /// differently from a run with no batches at all.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if any segment's range is non-finite
    /// or inverted, if the filter weights are non-finite, if the segment
    /// table does not cover exactly the batch, or if `bounds` does not
    /// cover exactly the segments; propagates shape errors.
    pub fn convolve_segmented(
        &self,
        input: &Tensor<f32>,
        bounds: &[(f32, f32)],
        segments: &SegmentTable,
    ) -> Result<Tensor<f32>, Error> {
        let n = input.shape().n;
        if segments.total() != n || bounds.len() != segments.len() {
            return Err(Error::Config(format!(
                "fused batch of {n} images: segment table covers {} images with {} \
                 segments but {} ranges were supplied",
                segments.total(),
                segments.len(),
                bounds.len()
            )));
        }
        for &(lo, hi) in bounds {
            backend::validate_range(lo, hi)?;
        }
        self.validate_filter_weights()?;
        let out_shape = self
            .geometry
            .output_shape(input.shape(), self.filter.shape())?;
        if n == 0 {
            return Ok(Tensor::zeros(out_shape));
        }
        let (plan, built) = self.plan();
        let range = self.quant_range();
        let seg_q: Vec<QuantParams> = bounds
            .iter()
            .map(|&(lo, hi)| QuantParams::from_range(lo, hi, range, self.round))
            .collect();
        // Each runner reads its segments' quantization from `seg_q`; the
        // spec's own `input_q` only seeds the per-segment copies.
        let spec = self.spec_with_plan(&plan, seg_q[0]);
        let (out, mut profile) = match self.ctx.backend() {
            Backend::CpuGemm => {
                backend::run_cpu_gemm_fused(input, &spec, &seg_q, segments, &plan, &self.ctx)?
            }
            // The nested-loop and simulated-device backends gain nothing
            // from fusion (no shared GEMM to amortize); run the segments
            // back-to-back — the bit-identity baseline itself.
            Backend::CpuDirect => {
                backend::run_per_segment(input, &spec, &seg_q, segments, |piece, spec| {
                    backend::run_cpu_direct(piece, spec, &plan, true)
                })?
            }
            Backend::GpuSim => {
                backend::run_per_segment(input, &spec, &seg_q, segments, |piece, spec| {
                    backend::run_gpusim(piece, spec, &plan, &self.ctx)
                })?
            }
        };
        if let Some(build_profile) = built {
            profile.merge(&build_profile);
        }
        self.ctx.record(&profile);
        Ok(out)
    }
}

impl Layer for AxConv2D {
    fn op_name(&self) -> &str {
        "AxConv2D"
    }

    fn arity(&self) -> usize {
        3 // [input, min, max]
    }

    fn output_shape(&self, inputs: &[Shape4]) -> Result<Shape4, NnError> {
        check_arity(self.op_name(), inputs, 3)?;
        Ok(self.geometry.output_shape(inputs[0], self.filter.shape())?)
    }

    fn forward(&self, inputs: &[&Tensor<f32>]) -> Result<Tensor<f32>, NnError> {
        check_arity(self.op_name(), inputs, 3)?;
        let scalar = |t: &Tensor<f32>, name: &str| -> Result<f32, NnError> {
            t.as_slice().first().copied().ok_or_else(|| NnError::Layer {
                layer: "AxConv2D".to_owned(),
                message: format!("empty {name} range tensor"),
            })
        };
        let lo = scalar(inputs[1], "Min")?;
        let hi = scalar(inputs[2], "Max")?;
        self.convolve_with_range(inputs[0], lo, hi)
            .map_err(|e| NnError::Layer {
                layer: "AxConv2D".to_owned(),
                message: e.to_string(),
            })
    }

    /// The fused-batch forward: `inputs[1]`/`inputs[2]` are the segmented
    /// observers' `[S, 1, 1, 1]` per-segment range tensors.
    fn forward_segmented(
        &self,
        inputs: &[&Tensor<f32>],
        segments: &SegmentTable,
    ) -> Result<Tensor<f32>, NnError> {
        check_arity(self.op_name(), inputs, 3)?;
        let los = inputs[1].as_slice();
        let his = inputs[2].as_slice();
        if los.len() != segments.len() || his.len() != segments.len() {
            return Err(NnError::Layer {
                layer: "AxConv2D".to_owned(),
                message: format!(
                    "range tensors hold {} min / {} max entries for {} segments",
                    los.len(),
                    his.len(),
                    segments.len()
                ),
            });
        }
        let bounds: Vec<(f32, f32)> = los.iter().zip(his).map(|(&lo, &hi)| (lo, hi)).collect();
        self.convolve_segmented(inputs[0], &bounds, segments)
            .map_err(|e| NnError::Layer {
                layer: "AxConv2D".to_owned(),
                message: e.to_string(),
            })
    }

    fn mac_count(&self, inputs: &[Shape4]) -> Result<u64, NnError> {
        check_arity(self.op_name(), inputs, 3)?;
        Ok(self.geometry.mac_count(inputs[0], self.filter.shape())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axtensor::{rng, FilterShape};
    use gpusim::Phase;

    fn make(backend: Backend, lut: MulLut) -> (AxConv2D, Tensor<f32>) {
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 3, 4), 2, -0.5, 0.5);
        let ctx = Arc::new(EmuContext::new(backend));
        let layer = AxConv2D::new(filter, ConvGeometry::default(), lut, ctx);
        let input = rng::uniform(Shape4::new(2, 6, 6, 3), 1, -1.0, 1.0);
        (layer, input)
    }

    #[test]
    fn standalone_convolve_close_to_float() {
        let (layer, input) = make(Backend::CpuGemm, MulLut::exact(Signedness::Signed));
        let out = layer.convolve(&input).unwrap();
        let float_ref = ops::conv2d_gemm(&input, &layer.filter, ConvGeometry::default()).unwrap();
        let diff = out.max_abs_diff(&float_ref).unwrap();
        assert!(diff < 0.5, "quantization noise only, got {diff}");
    }

    #[test]
    fn layer_contract_arity_and_shape() {
        let (layer, input) = make(Backend::CpuDirect, MulLut::exact(Signedness::Signed));
        let scalar = Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![-1.0]).unwrap();
        let scalar_hi = Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![1.0]).unwrap();
        let out = layer.forward(&[&input, &scalar, &scalar_hi]).unwrap();
        assert_eq!(out.shape(), Shape4::new(2, 6, 6, 4));
        assert!(layer.forward(&[&input]).is_err());
    }

    #[test]
    fn empty_range_tensor_is_an_error_not_a_panic() {
        let (layer, input) = make(Backend::CpuDirect, MulLut::exact(Signedness::Signed));
        let empty = Tensor::<f32>::zeros(Shape4::new(0, 1, 1, 1));
        let scalar = Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![1.0]).unwrap();
        let err = layer.forward(&[&input, &empty, &scalar]).unwrap_err();
        assert!(err.to_string().contains("empty Min range tensor"), "{err}");
        let err = layer.forward(&[&input, &scalar, &empty]).unwrap_err();
        assert!(err.to_string().contains("empty Max range tensor"), "{err}");
    }

    #[test]
    fn invalid_ranges_are_rejected() {
        let (layer, input) = make(Backend::CpuGemm, MulLut::exact(Signedness::Signed));
        assert!(layer.convolve_with_range(&input, 1.0, -1.0).is_err());
        assert!(layer.convolve_with_range(&input, f32::NAN, 1.0).is_err());
        assert!(layer
            .convolve_with_range(&input, -1.0, f32::INFINITY)
            .is_err());
        // A degenerate-but-valid range still works.
        assert!(layer.convolve_with_range(&input, 0.0, 0.0).is_ok());
    }

    #[test]
    fn non_finite_filter_weights_are_rejected() {
        let mut weights = vec![0.1f32; 3 * 3 * 3 * 4];
        weights[5] = f32::NAN;
        let filter = Filter::from_vec(FilterShape::new(3, 3, 3, 4), weights).unwrap();
        let ctx = Arc::new(EmuContext::new(Backend::CpuGemm));
        let layer = AxConv2D::new(
            filter,
            ConvGeometry::default(),
            MulLut::exact(Signedness::Signed),
            ctx,
        );
        let input = rng::uniform(Shape4::new(1, 6, 6, 3), 41, -1.0, 1.0);
        let err = layer.convolve(&input).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn plan_is_built_once_and_reused() {
        let (layer, input) = make(Backend::GpuSim, MulLut::exact(Signedness::Signed));
        assert!(!layer.is_prepared());
        let first_out = layer.convolve(&input).unwrap();
        assert!(layer.is_prepared());
        let first = layer.context().profile();
        layer.context().reset_profile();
        let second_out = layer.convolve(&input).unwrap();
        let second = layer.context().profile();
        assert_eq!(first_out, second_out);
        // The modeled GPU profile is deterministic: the second call's
        // Quantization share is input-side only — smaller than the first
        // by exactly the plan's one-off filter-quantization charge.
        let charge = layer.context().device().seconds(
            &crate::PreparedFilter::from_filter(&layer.filter, &layer.filter_quantization())
                .quant_events(),
        );
        let diff = first.seconds(Phase::Quantization) - second.seconds(Phase::Quantization);
        assert!(
            (diff - charge).abs() < 1e-12,
            "diff {diff} vs one-off charge {charge}"
        );
    }

    #[test]
    fn zero_image_forward_builds_and_charges_no_plan() {
        // Regression (PR 5): a zero-image forward used to build the
        // prepared plan and charge its one-off quantization cost, making
        // a zero-image `infer_batches` report differ from an empty one.
        for backend in [Backend::CpuDirect, Backend::CpuGemm, Backend::GpuSim] {
            let (layer, _) = make(backend, MulLut::exact(Signedness::Signed));
            let empty = Tensor::<f32>::zeros(Shape4::new(0, 6, 6, 3));
            let out = layer.convolve(&empty).unwrap();
            assert_eq!(out.shape(), Shape4::new(0, 6, 6, 4), "{backend:?}");
            assert!(!layer.is_prepared(), "{backend:?} built a plan for nothing");
            assert_eq!(
                layer.context().profile().total(),
                0.0,
                "{backend:?} charged time for zero images"
            );
        }
    }

    #[test]
    fn prepare_is_eager_and_idempotent() {
        let (layer, input) = make(Backend::CpuGemm, MulLut::exact(Signedness::Signed));
        layer.prepare().unwrap();
        assert!(layer.is_prepared());
        let quant_after_prepare = layer.context().profile().seconds(Phase::Quantization);
        assert!(quant_after_prepare > 0.0);
        layer.prepare().unwrap(); // no-op
        assert_eq!(
            layer.context().profile().seconds(Phase::Quantization),
            quant_after_prepare
        );
        let out = layer.convolve(&input).unwrap();
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn builder_mutation_invalidates_plan() {
        let (layer, _) = make(Backend::CpuGemm, MulLut::exact(Signedness::Signed));
        layer.prepare().unwrap();
        assert!(layer.is_prepared());
        let per_channel = layer.clone().with_per_channel_filter_quant();
        assert!(!per_channel.is_prepared());
        let (layer2, _) = make(Backend::CpuGemm, MulLut::exact(Signedness::Signed));
        layer2.prepare().unwrap();
        let rounded = layer2.clone().with_round_mode(RoundMode::TowardZero);
        assert!(!rounded.is_prepared());
    }

    #[test]
    fn signedness_determines_range() {
        let (signed, _) = make(Backend::CpuDirect, MulLut::exact(Signedness::Signed));
        assert_eq!(signed.quant_range(), QuantRange::i8());
        let (unsigned, _) = make(Backend::CpuDirect, MulLut::exact(Signedness::Unsigned));
        assert_eq!(unsigned.quant_range(), QuantRange::u8());
    }

    #[test]
    fn unsigned_multiplier_handles_signed_data() {
        // Data in [-1, 1] with an unsigned multiplier: the affine
        // zero-point shifts everything into [0, 255].
        let (layer, input) = make(Backend::CpuGemm, MulLut::exact(Signedness::Unsigned));
        let out = layer.convolve(&input).unwrap();
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        // Still close to the float convolution.
        let (exact_layer, _) = make(Backend::CpuGemm, MulLut::exact(Signedness::Signed));
        let signed_out = exact_layer.convolve(&input).unwrap();
        assert!(out.max_abs_diff(&signed_out).unwrap() < 0.5);
    }

    #[test]
    fn profile_recorded_into_context() {
        let (layer, input) = make(Backend::GpuSim, MulLut::exact(Signedness::Signed));
        assert_eq!(layer.context().profile().total(), 0.0);
        let _ = layer.convolve(&input).unwrap();
        assert!(layer.context().profile().total() > 0.0);
    }

    #[test]
    fn per_channel_quantization_reduces_error() {
        // A filter bank with wildly uneven per-channel magnitudes: the
        // per-tensor scale wastes resolution on the small channel.
        let fs = FilterShape::new(3, 3, 3, 2);
        let filter = Filter::from_fn(fs, |h, w, ci, co| {
            let base = ((h * 3 + w) as f32 - 4.0) / 10.0 + ci as f32 * 0.01;
            if co == 0 {
                base // range ~[-0.4, 0.4]
            } else {
                base * 0.02 // range ~[-0.008, 0.008]
            }
        });
        let input = rng::uniform(Shape4::new(1, 8, 8, 3), 21, -1.0, 1.0);
        let float_ref = ops::conv2d_direct(&input, &filter, ConvGeometry::default()).unwrap();
        let ctx = Arc::new(EmuContext::new(Backend::CpuGemm));
        let per_tensor = AxConv2D::new(
            filter.clone(),
            ConvGeometry::default(),
            MulLut::exact(Signedness::Signed),
            Arc::clone(&ctx),
        );
        let per_channel = per_tensor.clone().with_per_channel_filter_quant();
        assert!(per_channel.is_per_channel());
        // Compare the error on the *small-magnitude* channel (c = 1): the
        // per-tensor scale is sized for channel 0 and wastes resolution
        // there; per-channel quantization recovers it.
        let channel_err = |out: &Tensor<f32>| -> f32 {
            let mut worst = 0f32;
            let s = out.shape();
            for n in 0..s.n {
                for h in 0..s.h {
                    for w in 0..s.w {
                        worst = worst.max((out.at(n, h, w, 1) - float_ref.at(n, h, w, 1)).abs());
                    }
                }
            }
            worst
        };
        let e_tensor = channel_err(&per_tensor.convolve(&input).unwrap());
        let e_channel = channel_err(&per_channel.convolve(&input).unwrap());
        assert!(
            e_channel < e_tensor / 4.0,
            "per-channel {e_channel} !< per-tensor {e_tensor} / 4"
        );
    }

    #[test]
    fn per_channel_agrees_across_backends() {
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 3), 22, -0.5, 0.5);
        let input = rng::uniform(Shape4::new(2, 6, 6, 2), 23, -1.0, 1.0);
        let lut = MulLut::exact(Signedness::Signed);
        let run = |backend: Backend| {
            let ctx = Arc::new(EmuContext::new(backend));
            AxConv2D::new(filter.clone(), ConvGeometry::default(), lut.clone(), ctx)
                .with_per_channel_filter_quant()
                .convolve(&input)
                .unwrap()
        };
        let direct = run(Backend::CpuDirect);
        let gemm = run(Backend::CpuGemm);
        let gpu = run(Backend::GpuSim);
        assert!(direct.max_abs_diff(&gemm).unwrap() < 1e-4);
        assert!(direct.max_abs_diff(&gpu).unwrap() < 1e-2);
    }

    #[test]
    fn wide_accumulator_equals_exact() {
        let (layer, input) = make(Backend::CpuDirect, MulLut::exact(Signedness::Signed));
        let exact_out = layer.convolve(&input).unwrap();
        let wide = layer.clone().with_accumulator(Accumulator::Saturating(32));
        let wide_out = wide.convolve(&input).unwrap();
        assert_eq!(exact_out, wide_out, "32-bit accumulator never clips here");
    }

    #[test]
    fn narrow_saturating_accumulator_clips() {
        // Drive the accumulator hard: all-max inputs and weights.
        let filter = Filter::from_fn(FilterShape::new(3, 3, 8, 1), |_, _, _, _| 0.5);
        let input = Tensor::<f32>::full(Shape4::new(1, 8, 8, 8), 1.0);
        let ctx = Arc::new(EmuContext::new(Backend::CpuGemm));
        let base = AxConv2D::new(
            filter,
            ConvGeometry::default(),
            MulLut::exact(Signedness::Signed),
            ctx,
        );
        let exact_out = base.convolve(&input).unwrap();
        let narrow = base.clone().with_accumulator(Accumulator::Saturating(16));
        let narrow_out = narrow.convolve(&input).unwrap();
        // 72 taps x 127*127 far exceeds 2^15: saturation must bite. (The
        // dequantization correction shifts the clipped raw sum, so the
        // deviation is not sign-monotone — only its presence is asserted.)
        let diff = exact_out.max_abs_diff(&narrow_out).unwrap();
        assert!(diff > 0.0, "16-bit accumulator must saturate");
        assert!(narrow_out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn accumulator_model_consistent_across_cpu_backends() {
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 4, 2), 31, -0.5, 0.5);
        let input = rng::uniform(Shape4::new(1, 6, 6, 4), 32, -1.0, 1.0);
        let run = |backend: Backend| {
            let ctx = Arc::new(EmuContext::new(backend));
            AxConv2D::new(
                filter.clone(),
                ConvGeometry::default(),
                MulLut::exact(Signedness::Signed),
                ctx,
            )
            .with_accumulator(Accumulator::Wrapping(12))
            .convolve(&input)
            .unwrap()
        };
        let a = run(Backend::CpuDirect);
        let b = run(Backend::CpuGemm);
        assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
    }

    #[test]
    fn segmented_convolve_matches_solo_chained_on_every_backend() {
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 3), 61, -0.5, 0.5);
        let input = rng::uniform(Shape4::new(6, 5, 5, 2), 62, -1.0, 1.0);
        let segments = SegmentTable::from_counts(&[1, 3, 0, 2]);
        let bounds: Vec<(f32, f32)> = segments
            .iter()
            .map(|(a, b)| ops::min_max(&input.batch_slice(a, b - a)))
            .collect();
        for backend in [Backend::CpuDirect, Backend::CpuGemm, Backend::GpuSim] {
            let ctx = Arc::new(EmuContext::new(backend).with_chunk_size(4).unwrap());
            let layer = AxConv2D::new(
                filter.clone(),
                ConvGeometry::default(),
                MulLut::exact(Signedness::Signed),
                ctx,
            )
            .with_bias(vec![0.25, -0.5, 0.125]);
            let fused = layer
                .convolve_segmented(&input, &bounds, &segments)
                .unwrap();
            let mut parts = Vec::new();
            for (s, (a, b)) in segments.iter().enumerate() {
                let piece = input.batch_slice(a, b - a);
                parts.push(
                    layer
                        .convolve_with_range(&piece, bounds[s].0, bounds[s].1)
                        .unwrap(),
                );
            }
            let chained = Tensor::concat_batch(&parts).unwrap();
            assert_eq!(fused, chained, "{backend:?}");
        }
    }

    #[test]
    fn segmented_convolve_rejects_bad_tables_and_ranges() {
        let (layer, input) = make(Backend::CpuGemm, MulLut::exact(Signedness::Signed));
        // Table covering the wrong image count.
        let err = layer
            .convolve_segmented(&input, &[(-1.0, 1.0)], &SegmentTable::from_counts(&[1]))
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        // One range missing.
        let err = layer
            .convolve_segmented(&input, &[(-1.0, 1.0)], &SegmentTable::from_counts(&[1, 1]))
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        // A NaN range in any segment is rejected, as solo would.
        let err = layer
            .convolve_segmented(
                &input,
                &[(-1.0, 1.0), (f32::NAN, 1.0)],
                &SegmentTable::from_counts(&[1, 1]),
            )
            .unwrap_err();
        assert!(err.to_string().contains("invalid input range"), "{err}");
    }

    #[test]
    fn segmented_all_empty_builds_no_plan() {
        let (layer, _) = make(Backend::CpuGemm, MulLut::exact(Signedness::Signed));
        let empty = Tensor::<f32>::zeros(Shape4::new(0, 6, 6, 3));
        let out = layer
            .convolve_segmented(
                &empty,
                &[(0.0, 0.0), (0.0, 0.0)],
                &SegmentTable::from_counts(&[0, 0]),
            )
            .unwrap();
        assert_eq!(out.shape(), Shape4::new(0, 6, 6, 4));
        assert!(!layer.is_prepared());
    }

    #[test]
    fn mac_count_matches_accurate_conv() {
        let (layer, _) = make(Backend::CpuDirect, MulLut::exact(Signedness::Signed));
        let shape = Shape4::new(1, 6, 6, 3);
        let scalar = Shape4::new(1, 1, 1, 1);
        let macs = layer.mac_count(&[shape, scalar, scalar]).unwrap();
        assert_eq!(macs, 6 * 6 * 4 * 27);
    }
}
