//! The compiled-model entry point: build once, infer many times.

#![deny(missing_docs)]

use crate::kernel::KernelKind;
use crate::{
    runtime, Accumulator, Assignment, AxConv2D, Backend, EmuContext, EmulationReport, Error,
    TileConfig,
};
use axmult::AxMultiplier;
use axnn::{ExecCtx, Graph};
use axtensor::{SegmentTable, Tensor};
use gpusim::DeviceConfig;
use std::sync::Arc;

/// Configures and compiles a [`Session`].
///
/// The builder owns every emulation knob — backend, simulated device,
/// Algorithm-1 chunk size, host worker threads, and the multiplier
/// [`Assignment`] — so a compiled session is fully determined by one
/// `compile` call and the graph it transformed.
///
/// # Example
///
/// ```
/// use tfapprox::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = axnn::resnet::ResNetConfig::with_depth(8)?.build(42)?;
/// let mult = axmult::catalog::by_name("mul8s_exact")?;
/// let session = Session::builder()
///     .backend(Backend::CpuGemm)
///     .chunk_size(4)
///     .multiplier(&mult)
///     .compile(&graph)?;
/// assert_eq!(session.replaced_layers(), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    backend: Backend,
    device: Option<DeviceConfig>,
    chunk_size: Option<usize>,
    threads: Option<usize>,
    tiles: Option<TileConfig>,
    kernel: Option<KernelKind>,
    assignment: Option<Assignment>,
    /// A multiplier name to resolve at compile time (catalog, then the
    /// process-wide registry). Mutually exclusive with `assignment`;
    /// whichever was set last wins.
    named_multiplier: Option<String>,
    accumulator: Accumulator,
}

impl SessionBuilder {
    /// A builder with the default backend ([`Backend::GpuSim`]) and
    /// device, and no multiplier assigned yet.
    #[must_use]
    pub fn new() -> Self {
        SessionBuilder {
            backend: Backend::default(),
            device: None,
            chunk_size: None,
            threads: None,
            tiles: None,
            kernel: None,
            assignment: None,
            named_multiplier: None,
            accumulator: Accumulator::default(),
        }
    }

    /// Select where the emulation runs.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Use an explicit simulated-device configuration (default:
    /// GTX-1080-class).
    #[must_use]
    pub fn device(mut self, device: DeviceConfig) -> Self {
        self.device = Some(device);
        self
    }

    /// Override the Algorithm-1 chunk size (images per chunk). Validated
    /// at [`SessionBuilder::compile`]: zero is a compile error, not a
    /// runtime misbehaviour.
    #[must_use]
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = Some(chunk_size);
        self
    }

    /// Override the host worker-thread count (default: available
    /// parallelism). Validated at [`SessionBuilder::compile`].
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Override the cache-blocking panel sizes of the tiled host LUT-GEMM
    /// (the [`Backend::CpuGemm`] hot path); zero-sized panels are already
    /// rejected by [`TileConfig::new`].
    #[must_use]
    pub fn tile_config(mut self, tiles: TileConfig) -> Self {
        self.tiles = Some(tiles);
        self
    }

    /// Force a specific LUT-GEMM kernel arm for the host GEMM backend
    /// instead of the CPU's automatic choice
    /// ([`crate::kernel::auto_kernel`]). [`KernelKind::ScalarTiled`] is
    /// the always-available forced-scalar escape hatch; every arm is
    /// bit-identical, so this knob can only change speed, never results.
    /// Validated at [`SessionBuilder::compile`]: an arm this host cannot
    /// execute is a compile error, not a silent downgrade.
    #[must_use]
    pub fn kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Set the MAC accumulator model of every emulated convolution (CPU
    /// backends; the simulated GPU accumulates in 32-bit float like the
    /// paper's kernel and ignores this knob). Default:
    /// [`Accumulator::Exact`]. A narrow width outside `1..=32` fails at
    /// [`SessionBuilder::compile`].
    #[must_use]
    pub fn accumulator(mut self, accumulator: Accumulator) -> Self {
        self.accumulator = accumulator;
        self
    }

    /// Emulate one multiplier in every convolution layer — shorthand for
    /// [`SessionBuilder::assignment`] with [`Assignment::uniform`].
    #[must_use]
    pub fn multiplier(self, mult: &AxMultiplier) -> Self {
        self.assignment(Assignment::uniform(mult.clone()))
    }

    /// Emulate one multiplier in every convolution layer, resolved *by
    /// name* at [`SessionBuilder::compile`] — built-in catalog entries
    /// first, then the process-wide [`axmult::registry`], so multipliers
    /// compiled at runtime (see [`crate::compile`]) work exactly like
    /// built-ins. An unknown name is a compile-time [`Error`] carrying the
    /// usual "did you mean" suggestion.
    #[must_use]
    pub fn multiplier_named(mut self, name: impl Into<String>) -> Self {
        self.assignment = None;
        self.named_multiplier = Some(name.into());
        self
    }

    /// Use a per-layer multiplier [`Assignment`] (the ALWANN use case).
    #[must_use]
    pub fn assignment(mut self, assignment: Assignment) -> Self {
        self.assignment = Some(assignment);
        self.named_multiplier = None;
        self
    }

    /// Validate the configuration and build the shared emulation context.
    fn build_context(&self) -> Result<Arc<EmuContext>, Error> {
        let mut ctx = match &self.device {
            Some(dev) => EmuContext::with_device(self.backend, dev.clone())?,
            None => EmuContext::new(self.backend),
        };
        if let Some(chunk) = self.chunk_size {
            ctx = ctx.with_chunk_size(chunk)?;
        }
        if let Some(threads) = self.threads {
            ctx = ctx.with_threads(threads)?;
        }
        if let Some(tiles) = self.tiles {
            ctx = ctx.with_tile_config(tiles);
        }
        if let Some(kernel) = self.kernel {
            ctx = ctx.with_kernel(kernel)?;
        }
        Ok(Arc::new(ctx))
    }

    /// Transform `graph` (Conv2D → `AxConv2D` with `Min`/`Max` observers,
    /// Fig. 1) and **eagerly** build every layer's prepared-execution
    /// plan, so anything that would previously fail lazily on the first
    /// forward — non-finite weights, a bad configuration — fails here.
    ///
    /// # Errors
    ///
    /// - [`Error::Config`] if no multiplier/assignment was set, the chunk
    ///   size or thread count is zero, a narrow accumulator's width is
    ///   outside `1..=32`, the device's texture-cache geometry is
    ///   invalid, or the assignment does not match the graph's
    ///   convolution-layer count.
    /// - Propagates graph-transform and plan-build failures.
    pub fn compile(&self, graph: &Graph) -> Result<Session, Error> {
        let assignment = match (&self.assignment, &self.named_multiplier) {
            (Some(a), _) => a.clone(),
            (None, Some(name)) => Assignment::uniform_named(name)?,
            (None, None) => {
                return Err(Error::Config(
                    "no multiplier assigned: call .multiplier(..), .multiplier_named(..) or \
                     .assignment(..) before compile"
                        .to_owned(),
                ))
            }
        };
        let accumulator = self.accumulator.validate().map_err(Error::Config)?;
        let ctx = self.build_context()?;
        let mults = assignment.resolve(graph.conv_layer_count())?;
        let (transformed, layers, replaced) = rewrite_with_mults(graph, &mults, |conv, mult| {
            Arc::new(
                AxConv2D::from_conv2d(conv, mult, Arc::clone(&ctx)).with_accumulator(accumulator),
            )
        })?;
        let session = Session {
            source: graph.clone(),
            graph: transformed,
            layers,
            mults,
            ctx,
            accumulator,
            replaced,
        };
        session.prepare_all()?;
        Ok(session)
    }
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Rewrite `graph`'s convolutions, producing one layer per resolved
/// multiplier via `make`, and collect the concrete `AxConv2D` handles so
/// the session can prepare and later reuse their plans.
fn rewrite_with_mults(
    graph: &Graph,
    mults: &[AxMultiplier],
    mut make: impl FnMut(&axnn::layers::Conv2D, &AxMultiplier) -> Arc<AxConv2D>,
) -> Result<(Graph, Vec<Arc<AxConv2D>>, usize), Error> {
    let mut layers: Vec<Arc<AxConv2D>> = Vec::with_capacity(mults.len());
    let (transformed, replaced) = graph.rewrite_convs(|conv| {
        let mult = &mults[layers.len()];
        let ax = make(conv, mult);
        layers.push(Arc::clone(&ax));
        ax
    })?;
    // `conv_layer_count` counts every `*Conv2D` op (the paper's `L`),
    // but only accurate `Conv2D` nodes are rewritable — compiling an
    // already-transformed graph would silently keep its old multipliers.
    if replaced != mults.len() {
        return Err(Error::Config(format!(
            "graph has {} convolution layers but only {replaced} are rewritable Conv2D \
             nodes — was it already transformed (e.g. a Session's own graph)?",
            mults.len()
        )));
    }
    Ok((transformed, layers, replaced))
}

/// A compiled approximate model: the transformed graph, the shared
/// emulation context, and every layer's eagerly-built prepared-execution
/// plan.
///
/// A session is the unit of the design-space loop: compile once, call
/// [`Session::infer`] / [`Session::infer_batches`] many times, and move
/// to the next candidate with [`Session::reassign`] — which recompiles
/// while reusing the cached plans of every layer whose multiplier did not
/// change.
///
/// # Example
///
/// ```
/// use tfapprox::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = axnn::resnet::ResNetConfig::with_depth(8)?.build(42)?;
/// let mult = axmult::catalog::by_name("mul8s_bam_v8h0")?;
/// let session = Session::builder().multiplier(&mult).compile(&graph)?;
///
/// let input = axtensor::rng::uniform(axnn::resnet::cifar_input_shape(2), 1, -1.0, 1.0);
/// let probs = session.infer(&input)?;
/// assert_eq!(probs.shape().c, 10);
///
/// let (outputs, report) = session.infer_batches(std::slice::from_ref(&input))?;
/// assert_eq!(outputs.len(), 1);
/// assert_eq!(report.images, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Session {
    /// The untransformed source graph, kept so `reassign` can rewrite it
    /// again without the caller holding on to it.
    source: Graph,
    /// The transformed (approximate) graph.
    graph: Graph,
    /// The `AxConv2D` nodes of `graph`, in topological order.
    layers: Vec<Arc<AxConv2D>>,
    /// The resolved multiplier of each layer, same order as `layers`.
    mults: Vec<AxMultiplier>,
    ctx: Arc<EmuContext>,
    /// The MAC accumulator model every layer was compiled with.
    accumulator: Accumulator,
    replaced: usize,
}

impl Session {
    /// Start configuring a session.
    #[must_use]
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// Eagerly build every layer's prepared plan (idempotent per layer).
    fn prepare_all(&self) -> Result<(), Error> {
        for layer in &self.layers {
            layer.prepare()?;
        }
        Ok(())
    }

    /// Run one inference batch through the compiled graph.
    ///
    /// # Errors
    ///
    /// Propagates graph execution failures.
    pub fn infer(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, Error> {
        Ok(self.graph.run(input, &self.exec(None))?)
    }

    /// Run several independent requests through the compiled graph as
    /// **one fused batch** — one graph sweep, one segmented LUT-GEMM per
    /// layer chunk — and split the outputs back per request.
    ///
    /// The requests are concatenated along the batch axis with a
    /// [`SegmentTable`] marking their spans; every range-observing node
    /// resolves its quantization *per segment*, so the result is
    /// **bit-identical** to calling [`Session::infer`] on each request
    /// alone, for every backend, accumulator model, and batch
    /// composition (zero-image requests included). This is what makes
    /// serve-tier micro-batching profitable: the per-layer dispatch,
    /// worker-pool synchronization, and GEMM setup are paid once per
    /// fused batch instead of once per request.
    ///
    /// An empty request list produces an empty output list.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the requests disagree on `h`/`w`/`c`;
    /// propagates graph execution failures.
    pub fn infer_fused(&self, requests: &[Tensor<f32>]) -> Result<Vec<Tensor<f32>>, Error> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let counts: Vec<usize> = requests.iter().map(|t| t.shape().n).collect();
        let segments = SegmentTable::from_counts(&counts);
        let fused = Tensor::concat_batch(requests)?;
        let out = self.graph.run(&fused, &self.exec(Some(&segments)))?;
        Ok(segments
            .iter()
            .map(|(start, end)| out.batch_slice(start, end - start))
            .collect())
    }

    /// Run the compiled graph over evaluation batches, producing the
    /// per-batch outputs and the `tinit + tcomp` [`EmulationReport`]
    /// (Table I's decomposition; the profile carries the Fig. 2 phase
    /// split).
    ///
    /// Exactly one output tensor is produced per input batch. Zero-image
    /// runs are legal in both shapes — an empty `batches` list and
    /// zero-image batch tensors (which yield shaped-empty outputs) — and
    /// report identically: `images == 0`, an explicit 0.0 throughput,
    /// `tinit` still charged.
    ///
    /// # Errors
    ///
    /// Propagates graph execution failures.
    pub fn infer_batches(
        &self,
        batches: &[Tensor<f32>],
    ) -> Result<(Vec<Tensor<f32>>, EmulationReport), Error> {
        runtime::run_approx(&self.graph, batches, &self.ctx, self.accumulator)
    }

    /// The execution context of one graph run: the context's worker pool,
    /// which the non-conv layers split their work across too.
    fn exec<'a>(&'a self, segments: Option<&'a SegmentTable>) -> ExecCtx<'a> {
        ExecCtx {
            pool: Some(self.ctx.pool()),
            segments,
        }
    }

    /// Recompile with a new multiplier [`Assignment`], **reusing the
    /// cached prepared plan** of every layer whose multiplier is
    /// unchanged — and, for changed layers of the same signedness,
    /// transplanting the plan outright (the plan depends on the filter
    /// and the quantized range, not on the LUT contents). This makes the
    /// ALWANN design-space loop's per-candidate cost input-side only.
    ///
    /// The new session shares this session's emulation context (backend,
    /// device, texture cache, worker pool); this session stays usable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the assignment does not resolve
    /// against the graph's convolution-layer count; propagates
    /// graph-transform and plan-build failures.
    pub fn reassign(&self, assignment: &Assignment) -> Result<Session, Error> {
        let mults = assignment.resolve(self.mults.len())?;
        let mut index = 0usize;
        let (transformed, layers, replaced) =
            rewrite_with_mults(&self.source, &mults, |conv, mult| {
                let i = index;
                index += 1;
                let old_layer = &self.layers[i];
                let old_mult = &self.mults[i];
                if mult.lut() == old_mult.lut() {
                    // Unchanged multiplier: the whole layer (and its
                    // cached plan) is reusable as-is.
                    return Arc::clone(old_layer);
                }
                let fresh = AxConv2D::from_conv2d(conv, mult, Arc::clone(&self.ctx))
                    .with_accumulator(self.accumulator);
                if mult.signedness() == old_mult.signedness() {
                    if let Some(plan) = old_layer.cached_plan() {
                        fresh.seed_plan(plan);
                    }
                }
                Arc::new(fresh)
            })?;
        let session = Session {
            source: self.source.clone(),
            graph: transformed,
            layers,
            mults,
            ctx: Arc::clone(&self.ctx),
            accumulator: self.accumulator,
            replaced,
        };
        session.prepare_all()?;
        Ok(session)
    }

    /// The backend this session emulates on.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.ctx.backend()
    }

    /// The MAC accumulator model every convolution layer was compiled
    /// with.
    #[must_use]
    pub fn accumulator(&self) -> Accumulator {
        self.accumulator
    }

    /// The shared emulation context (profiles, events, texture cache).
    #[must_use]
    pub fn context(&self) -> &Arc<EmuContext> {
        &self.ctx
    }

    /// The LUT-GEMM kernel arm this session's host GEMM runs: the arm
    /// selected at compile (see [`SessionBuilder::kernel`]), or the
    /// scalar walker for a `Saturating(32)` accumulator, whose clamp
    /// bounds no SIMD lane holds.
    #[must_use]
    pub fn kernel(&self) -> KernelKind {
        crate::kernel::dispatch::effective(self.ctx.kernel(), self.accumulator)
    }

    /// The transformed (approximate) graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// How many `Conv2D` layers were replaced by `AxConv2D` — the
    /// paper's `L`.
    #[must_use]
    pub fn replaced_layers(&self) -> usize {
        self.replaced
    }

    /// The resolved multiplier of each convolution layer, in topological
    /// order.
    #[must_use]
    pub fn multipliers(&self) -> &[AxMultiplier] {
        &self.mults
    }

    /// Names of the convolution layers, in topological order — the
    /// indices an [`Assignment`] addresses.
    #[must_use]
    pub fn conv_layer_names(&self) -> Vec<&str> {
        self.source.conv_layers().map(|(_, name)| name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn::resnet::{cifar_input_shape, ResNetConfig};
    use axtensor::rng;

    fn exact() -> AxMultiplier {
        axmult::catalog::by_name("mul8s_exact").unwrap()
    }

    fn rough() -> AxMultiplier {
        axmult::catalog::by_name("mul8s_bam_v8h0").unwrap()
    }

    #[test]
    fn compile_requires_a_multiplier() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(1).unwrap();
        let err = Session::builder().compile(&graph).unwrap_err();
        assert!(err.to_string().contains("no multiplier"), "{err}");
    }

    #[test]
    fn compile_resolves_named_multipliers() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(1).unwrap();

        // A catalog name resolves identically to passing the multiplier.
        let named = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier_named("mul8s_exact")
            .compile(&graph)
            .unwrap();
        assert!(named
            .multipliers()
            .iter()
            .all(|m| m.name() == "mul8s_exact"));

        // A registered (bring-your-own) name resolves the same way.
        axmult::registry::register(AxMultiplier::new(
            "ses_test_registered",
            "registry entry for session test",
            axmult::MulLut::exact(axmult::Signedness::Signed),
            None,
        ))
        .unwrap();
        let custom = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier_named("ses_test_registered")
            .compile(&graph)
            .unwrap();
        assert!(custom
            .multipliers()
            .iter()
            .all(|m| m.name() == "ses_test_registered"));
        axmult::registry::unregister("ses_test_registered");

        // Typos fail at compile time with the did-you-mean treatment.
        let err = Session::builder()
            .multiplier_named("mul8s_exakt")
            .compile(&graph)
            .unwrap_err();
        assert!(err.to_string().contains("did you mean"), "{err}");

        // Whichever of name/assignment was set last wins.
        let last_wins = Session::builder()
            .multiplier(&rough())
            .multiplier_named("mul8s_exact")
            .compile(&graph)
            .unwrap();
        assert!(last_wins
            .multipliers()
            .iter()
            .all(|m| m.name() == "mul8s_exact"));
    }

    #[test]
    fn compile_rejects_zero_chunk_and_threads() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(1).unwrap();
        let err = Session::builder()
            .multiplier(&exact())
            .chunk_size(0)
            .compile(&graph)
            .unwrap_err();
        assert!(err.to_string().contains("chunk size"), "{err}");
        let err = Session::builder()
            .multiplier(&exact())
            .threads(0)
            .compile(&graph)
            .unwrap_err();
        assert!(err.to_string().contains("thread count"), "{err}");
    }

    #[test]
    fn compile_rejects_accumulator_widths_outside_1_to_32() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(1).unwrap();
        let compile = |accumulator| {
            Session::builder()
                .multiplier(&exact())
                .accumulator(accumulator)
                .compile(&graph)
        };
        for bits in [0, 33] {
            for accumulator in [Accumulator::Saturating(bits), Accumulator::Wrapping(bits)] {
                let err = compile(accumulator).unwrap_err();
                assert!(matches!(err, Error::Config(_)), "{err}");
                assert!(err.to_string().contains("1..=32"), "{err}");
            }
        }
        for accumulator in [Accumulator::Saturating(32), Accumulator::Wrapping(1)] {
            assert!(compile(accumulator).is_ok(), "{accumulator:?}");
        }
    }

    fn compile_on(device: DeviceConfig) -> Result<Session, Error> {
        let graph = ResNetConfig::with_depth(8).unwrap().build(1).unwrap();
        Session::builder()
            .backend(Backend::GpuSim)
            .device(device)
            .multiplier(&exact())
            .compile(&graph)
    }

    #[test]
    fn compile_rejects_a_texture_line_that_is_not_a_power_of_two() {
        for line in [0, 1, 24] {
            let dev = DeviceConfig {
                tex_cache_line: line,
                ..DeviceConfig::gtx1080()
            };
            let err = compile_on(dev).expect_err("invalid line accepted");
            assert!(matches!(err, Error::Config(_)), "{err}");
            assert!(err.to_string().contains("power of two"), "{err}");
        }
    }

    #[test]
    fn compile_rejects_a_texture_cache_below_one_set() {
        let dev = DeviceConfig {
            tex_cache_bytes: 64,
            ..DeviceConfig::gtx1080()
        };
        let err = compile_on(dev).expect_err("sub-set cache accepted");
        assert!(matches!(err, Error::Config(_)), "{err}");
        assert!(err.to_string().contains("fewer than one"), "{err}");
        // One full 4-way set is the smallest valid cache.
        let dev = DeviceConfig {
            tex_cache_bytes: 4 * 32,
            ..DeviceConfig::gtx1080()
        };
        assert!(compile_on(dev).is_ok());
    }

    #[test]
    fn kernel_override_is_honored_and_defaults_to_auto() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(1).unwrap();
        let auto = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        assert_eq!(auto.kernel(), crate::kernel::auto_kernel());
        let forced = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .kernel(KernelKind::ScalarTiled)
            .compile(&graph)
            .unwrap();
        assert_eq!(forced.kernel(), KernelKind::ScalarTiled);
    }

    #[test]
    fn compile_is_eager_lazy_failures_surface_at_compile_time() {
        // A graph whose conv weights are non-finite used to fail on the
        // first forward; with the session API it cannot even compile.
        use axnn::layers::Conv2D;
        use axtensor::{ConvGeometry, Filter, FilterShape};
        let mut g = Graph::new();
        let x = g.input();
        let mut w = vec![0.1f32; 9];
        w[4] = f32::NAN;
        let conv = Conv2D::new(
            Filter::from_vec(FilterShape::new(3, 3, 1, 1), w).unwrap(),
            ConvGeometry::default(),
        );
        let c = g.add("bad", Arc::new(conv), &[x]).unwrap();
        g.set_output(c).unwrap();
        let err = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .compile(&g)
            .unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn compile_rejects_an_already_transformed_graph() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(1).unwrap();
        let session = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        // The transformed graph's AxConv2D nodes are not rewritable:
        // recompiling it must fail loudly, not keep the old multipliers.
        let err = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&rough())
            .compile(session.graph())
            .unwrap_err();
        assert!(err.to_string().contains("already transformed"), "{err}");
    }

    #[test]
    fn compile_prepares_every_layer() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(2).unwrap();
        let session = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        assert_eq!(session.replaced_layers(), 7);
        assert_eq!(session.conv_layer_names().len(), 7);
        assert!(session.layers.iter().all(|l| l.is_prepared()));
        // The transform keeps the work: the inserted observers add no MACs.
        let shape = cifar_input_shape(1);
        assert_eq!(
            session.graph().mac_count(shape).unwrap(),
            graph.mac_count(shape).unwrap()
        );
    }

    #[test]
    fn infer_matches_direct_graph_forward() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(3).unwrap();
        let session = Session::builder()
            .backend(Backend::CpuGemm)
            .chunk_size(2)
            .multiplier(&rough())
            .compile(&graph)
            .unwrap();
        let input = rng::uniform(cifar_input_shape(2), 7, -1.0, 1.0);
        let a = session.infer(&input).unwrap();
        let b = session.graph().forward(&input).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn infer_batches_reports_images() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(4).unwrap();
        let session = Session::builder()
            .backend(Backend::GpuSim)
            .chunk_size(2)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        let batches = vec![
            rng::uniform(cifar_input_shape(2), 1, -1.0, 1.0),
            rng::uniform(cifar_input_shape(2), 2, -1.0, 1.0),
        ];
        let (outputs, report) = session.infer_batches(&batches).unwrap();
        assert_eq!(outputs.len(), 2);
        assert_eq!(report.images, 4);
        assert!(report.total() > 0.0);
    }

    #[test]
    fn infer_batches_empty_shapes_agree() {
        // Regression (PR 5): both zero-image shapes flow through the
        // session API with one output per input batch and a zero-image,
        // zero-throughput report.
        let graph = ResNetConfig::with_depth(8).unwrap().build(4).unwrap();
        let session = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        let (outputs, report) = session.infer_batches(&[]).unwrap();
        assert!(outputs.is_empty());
        assert_eq!(report.images, 0);
        assert_eq!(report.images_per_second(), 0.0);

        let zero = rng::uniform(cifar_input_shape(0), 1, -1.0, 1.0);
        let (outputs, report) = session.infer_batches(std::slice::from_ref(&zero)).unwrap();
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0].shape().n, 0);
        assert_eq!(outputs[0].shape().c, 10, "shaped-empty, not just empty");
        assert_eq!(report.images, 0);
        assert_eq!(report.images_per_second(), 0.0);
    }

    #[test]
    fn infer_fused_is_bit_identical_to_solo_infer() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(9).unwrap();
        for backend in [Backend::CpuDirect, Backend::CpuGemm, Backend::GpuSim] {
            let session = Session::builder()
                .backend(backend)
                .chunk_size(3)
                .multiplier(&rough())
                .compile(&graph)
                .unwrap();
            let requests = vec![
                rng::uniform(cifar_input_shape(2), 31, -1.0, 1.0),
                rng::uniform(cifar_input_shape(0), 32, -1.0, 1.0),
                rng::uniform(cifar_input_shape(1), 33, -1.0, 1.0),
                rng::uniform(cifar_input_shape(4), 34, -1.0, 1.0),
            ];
            let fused = session.infer_fused(&requests).unwrap();
            assert_eq!(fused.len(), requests.len());
            for (request, out) in requests.iter().zip(&fused) {
                assert_eq!(out, &session.infer(request).unwrap(), "{backend:?}");
            }
        }
    }

    #[test]
    fn infer_fused_edge_shapes() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(10).unwrap();
        let session = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        assert!(session.infer_fused(&[]).unwrap().is_empty());
        // A single request degenerates to solo inference.
        let one = rng::uniform(cifar_input_shape(2), 41, -1.0, 1.0);
        let fused = session.infer_fused(std::slice::from_ref(&one)).unwrap();
        assert_eq!(fused[0], session.infer(&one).unwrap());
        // Mismatched spatial shapes are a typed error, not a panic.
        let odd = rng::uniform(axtensor::Shape4::new(1, 8, 8, 3), 42, -1.0, 1.0);
        assert!(session.infer_fused(&[one, odd]).is_err());
    }

    #[test]
    fn accumulator_knob_applies_to_every_layer() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(7).unwrap();
        let input = rng::uniform(cifar_input_shape(2), 13, -1.0, 1.0);
        let wide = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        assert_eq!(wide.accumulator(), Accumulator::Exact);
        // A narrow saturating accumulator must change the network output
        // (ResNet conv sums overflow 10 bits easily)…
        let narrow = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .accumulator(Accumulator::Saturating(10))
            .compile(&graph)
            .unwrap();
        assert_eq!(narrow.accumulator(), Accumulator::Saturating(10));
        let a = wide.infer(&input).unwrap();
        let b = narrow.infer(&input).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() > 0.0, "10-bit sat must bite");
        // …and survive a reassign: the new session keeps the model.
        let renarrow = narrow.reassign(&Assignment::uniform(rough())).unwrap();
        assert_eq!(renarrow.accumulator(), Accumulator::Saturating(10));
    }

    #[test]
    fn reassign_reuses_unchanged_layers() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(5).unwrap();
        let session = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&rough())
            .compile(&graph)
            .unwrap();
        // Protect the stem, keep everything else.
        let next = session
            .reassign(&Assignment::uniform(rough()).with_layer(0, exact()))
            .unwrap();
        assert!(Arc::ptr_eq(&session.layers[1], &next.layers[1]));
        assert!(!Arc::ptr_eq(&session.layers[0], &next.layers[0]));
        assert_eq!(next.multipliers()[0].name(), "mul8s_exact");
        assert_eq!(next.multipliers()[1].name(), "mul8s_bam_v8h0");
        // Both sessions still run.
        let input = rng::uniform(cifar_input_shape(1), 9, -1.0, 1.0);
        let a = session.infer(&input).unwrap();
        let b = next.infer(&input).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() > 0.0, "stem change must show");
    }

    #[test]
    fn reassign_identical_assignment_is_all_reuse() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(6).unwrap();
        let session = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        let next = session.reassign(&Assignment::uniform(exact())).unwrap();
        for (a, b) in session.layers.iter().zip(&next.layers) {
            assert!(Arc::ptr_eq(a, b));
        }
    }
}
