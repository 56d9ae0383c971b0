//! Batch-wise inference with `tinit + tcomp` accounting.
//!
//! Table I reports every configuration as `tinit + tcomp`: a constant
//! initialization (context creation, allocation, data transfer) plus a
//! computation time that grows linearly with the number of MACs. This
//! module executes a (transformed) graph over evaluation batches and
//! produces that decomposition.

use crate::json;
use crate::kernel::dispatch;
use crate::{Accumulator, Backend, EmuContext, Error};
use axnn::{ExecCtx, Graph};
use axtensor::Tensor;
use gpusim::{Phase, PhaseProfile};
use std::time::Instant;

/// Modeled constant CPU-side initialization (framework start-up, weight
/// loading) — Table I's CPU `tinit` is 0.2–0.3 s and flat.
pub const CPU_INIT_S: f64 = 0.25;

/// Result of one emulated inference run.
#[derive(Debug, Clone, Copy)]
pub struct EmulationReport {
    /// The backend that executed the run.
    pub backend: Backend,
    /// Initialization seconds (constant for a given dataset).
    pub tinit: f64,
    /// Computation seconds (linear in MACs).
    pub tcomp: f64,
    /// Phase breakdown of `tinit + tcomp` (Fig. 2).
    pub profile: PhaseProfile,
    /// Images processed.
    pub images: usize,
    /// The LUT-GEMM kernel arm that executed the host GEMM (a
    /// [`crate::kernel::KernelKind`] name; the scalar walker for a
    /// `Saturating(32)` accumulator), or `"none"` for backends
    /// that never enter the host LUT-GEMM (direct CPU loops, the
    /// simulated GPU, the accurate baseline).
    pub kernel: &'static str,
}

impl EmulationReport {
    /// Total time `tinit + tcomp`.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.tinit + self.tcomp
    }

    /// Emulated-inference throughput, `images / (tinit + tcomp)` — the
    /// figure of merit the paper's speedup columns compare.
    ///
    /// Returns an explicit 0.0 — never a division by zero or a NaN — for
    /// degenerate runs: zero images (zero-batch inputs are legal and flow
    /// through every backend) or zero total time.
    #[must_use]
    pub fn images_per_second(&self) -> f64 {
        let total = self.total();
        if self.images == 0 || total <= 0.0 {
            0.0
        } else {
            self.images as f64 / total
        }
    }

    /// Render the report as one JSON object (schema
    /// `tfapprox-session-report/2`), suitable for appending to a
    /// `BENCH_*.json` trajectory the way the conv-engine bench does:
    /// backend, the active LUT-GEMM kernel, `tinit`/`tcomp`/total
    /// seconds, image count, throughput, and the Fig. 2 phase seconds
    /// and fractions.
    #[must_use]
    pub fn to_json(&self) -> String {
        let phase_entries = |f: &dyn Fn(Phase) -> f64| -> String {
            let names = Phase::all().map(|p| format!("{p:?}").to_lowercase());
            let fields: Vec<(&str, String)> = Phase::all()
                .into_iter()
                .zip(&names)
                .map(|(p, name)| (name.as_str(), json::number(f(p))))
                .collect();
            json::object(&fields)
        };
        json::object(&[
            ("schema", json::string("tfapprox-session-report/2")),
            ("backend", json::string(&self.backend.to_string())),
            ("kernel", json::string(self.kernel)),
            ("tinit_s", json::number(self.tinit)),
            ("tcomp_s", json::number(self.tcomp)),
            ("total_s", json::number(self.total())),
            ("images", json::integer(self.images as u64)),
            ("images_per_second", json::number(self.images_per_second())),
            ("phase_seconds", phase_entries(&|p| self.profile.seconds(p))),
            (
                "phase_fractions",
                phase_entries(&|p| self.profile.fraction(p)),
            ),
        ])
    }
}

/// Modeled `tinit` for the simulated GPU: context creation plus PCIe
/// transfer of the dataset and the 128 kB LUT (weights are comparatively
/// negligible for the CIFAR ResNets).
#[must_use]
pub fn gpu_init_seconds(ctx: &EmuContext, dataset_bytes: u64) -> f64 {
    let dev = ctx.device();
    dev.context_init_s + dev.transfer_seconds(dataset_bytes + axmult::lut::LUT_BYTES as u64)
}

/// Run a transformed (approximate) graph over evaluation batches.
///
/// For CPU backends, `tcomp` is real measured wall-clock; for the
/// simulated GPU it is the modeled time accumulated in the context's
/// profile plus a DRAM charge for the non-convolution layers.
///
/// Zero-image runs are legal in **both** shapes — an empty `batches`
/// list and a list of zero-image batch tensors — and behave the same:
/// `outputs` always holds exactly one (possibly shaped-empty) tensor per
/// input batch, the report carries `images == 0` with an explicit 0.0
/// throughput, and `tinit` is still charged (on the modeled GPU backend
/// the two shapes produce bit-identical reports; on CPU backends `tcomp`
/// is wall-clock and differs only by measurement noise).
///
/// The first batch of the first run additionally pays each layer's
/// prepared-plan build (one-off filter quantization, charged to the
/// Quantization phase); subsequent runs over the same graph reuse the
/// cached plans, so their Quantization share is input-side only.
///
/// `accumulator` is the model the graph's layers were built with; it
/// decides which kernel arm the report names.
///
/// Returns the per-batch outputs and the report.
///
/// # Errors
///
/// Propagates graph execution failures.
pub fn run_approx(
    graph: &Graph,
    batches: &[Tensor<f32>],
    ctx: &EmuContext,
    accumulator: Accumulator,
) -> Result<(Vec<Tensor<f32>>, EmulationReport), Error> {
    ctx.reset_profile();
    let exec = ExecCtx {
        pool: Some(ctx.pool()),
        segments: None,
    };
    let mut outputs = Vec::with_capacity(batches.len());
    let mut images = 0usize;
    let mut dataset_bytes = 0u64;
    let wall = Instant::now();
    for batch in batches {
        images += batch.shape().n;
        dataset_bytes += batch.shape().len() as u64 * 4;
        outputs.push(graph.run(batch, &exec)?);
    }
    let wall_s = wall.elapsed().as_secs_f64();

    let mut profile = ctx.profile();
    let (tinit, tcomp) = match ctx.backend() {
        Backend::CpuDirect | Backend::CpuGemm => {
            // Real measured time; phases inside the conv layers were
            // measured too. Attribute the non-conv remainder to Other.
            let conv_total = profile.total();
            let remainder = (wall_s - conv_total).max(0.0);
            profile.add(Phase::Other, remainder);
            (CPU_INIT_S, wall_s)
        }
        Backend::GpuSim => {
            // Modeled conv time is in the profile; charge the
            // element-wise layers (BN, ReLU, Add, pooling) as DRAM
            // traffic.
            let dev = ctx.device();
            let elementwise_bytes = dataset_bytes * 8; // read+write few passes
            let extra = elementwise_bytes as f64 / dev.dram_bytes_per_s;
            profile.add(Phase::Other, extra);
            (gpu_init_seconds(ctx, dataset_bytes), profile.total())
        }
    };
    profile.add(Phase::Init, tinit);
    debug_assert_eq!(
        outputs.len(),
        batches.len(),
        "one output per input batch, even for zero-image batches"
    );
    Ok((
        outputs,
        EmulationReport {
            backend: ctx.backend(),
            tinit,
            tcomp,
            profile,
            images,
            kernel: match ctx.backend() {
                Backend::CpuGemm => dispatch::effective(ctx.kernel(), accumulator).name(),
                Backend::CpuDirect | Backend::GpuSim => "none",
            },
        },
    ))
}

/// Run the **accurate** float graph on the host, measuring wall-clock —
/// Table I's "accurate Conv2D (CPU)" baseline.
///
/// # Errors
///
/// Propagates graph execution failures.
pub fn run_accurate_cpu(
    graph: &Graph,
    batches: &[Tensor<f32>],
) -> Result<(Vec<Tensor<f32>>, EmulationReport), Error> {
    let mut outputs = Vec::with_capacity(batches.len());
    let mut images = 0usize;
    let wall = Instant::now();
    for batch in batches {
        images += batch.shape().n;
        outputs.push(graph.forward(batch)?);
    }
    let tcomp = wall.elapsed().as_secs_f64();
    let mut profile = PhaseProfile::new();
    profile.add(Phase::Init, CPU_INIT_S);
    profile.add(Phase::Other, tcomp);
    Ok((
        outputs,
        EmulationReport {
            backend: Backend::CpuDirect,
            tinit: CPU_INIT_S,
            tcomp,
            profile,
            images,
            kernel: "none",
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AxConv2D;
    use axnn::resnet::{cifar_input_shape, ResNetConfig};
    use axtensor::rng;
    use std::sync::Arc;

    fn tiny_setup(backend: Backend) -> (Graph, Vec<Tensor<f32>>, Arc<EmuContext>) {
        let graph = ResNetConfig::with_depth(8).unwrap().build(1).unwrap();
        let mult = axmult::catalog::by_name("mul8s_exact").unwrap();
        let ctx = Arc::new(EmuContext::new(backend).with_chunk_size(2).unwrap());
        let (ax, _) = graph
            .rewrite_convs(|conv| Arc::new(AxConv2D::from_conv2d(conv, &mult, Arc::clone(&ctx))))
            .unwrap();
        let batches = vec![
            rng::uniform(cifar_input_shape(2), 1, -1.0, 1.0),
            rng::uniform(cifar_input_shape(2), 2, -1.0, 1.0),
        ];
        (ax, batches, ctx)
    }

    #[test]
    fn cpu_run_measures_wall_clock() {
        let (graph, batches, ctx) = tiny_setup(Backend::CpuGemm);
        let (outputs, report) = run_approx(&graph, &batches, &ctx, Accumulator::Exact).unwrap();
        assert_eq!(outputs.len(), 2);
        assert_eq!(report.images, 4);
        assert!(report.tcomp > 0.0);
        assert_eq!(report.tinit, CPU_INIT_S);
        assert!(report.total() > report.tcomp);
    }

    #[test]
    fn gpu_run_reports_modeled_time() {
        let (graph, batches, ctx) = tiny_setup(Backend::GpuSim);
        let (_, report) = run_approx(&graph, &batches, &ctx, Accumulator::Exact).unwrap();
        // Modeled seconds present in every phase.
        assert!(report.profile.seconds(Phase::LutLookup) > 0.0);
        assert!(report.profile.seconds(Phase::Quantization) > 0.0);
        assert!(report.tinit > ctx.device().context_init_s);
        // Tiny workload: modeled comp far below init.
        assert!(report.tcomp < report.tinit);
    }

    #[test]
    fn second_run_reuses_prepared_plans() {
        // Modeled GPU time is deterministic: the first run pays every
        // layer's one-off filter-quantization charge, later runs don't.
        let (graph, batches, ctx) = tiny_setup(Backend::GpuSim);
        let (_, first) = run_approx(&graph, &batches, &ctx, Accumulator::Exact).unwrap();
        let (_, second) = run_approx(&graph, &batches, &ctx, Accumulator::Exact).unwrap();
        let (_, third) = run_approx(&graph, &batches, &ctx, Accumulator::Exact).unwrap();
        let q = |r: &EmulationReport| r.profile.seconds(Phase::Quantization);
        assert!(q(&second) < q(&first));
        assert!((q(&second) - q(&third)).abs() < 1e-12);
    }

    #[test]
    fn accurate_cpu_baseline_runs() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(1).unwrap();
        let batches = vec![rng::uniform(cifar_input_shape(2), 1, -1.0, 1.0)];
        let (outputs, report) = run_accurate_cpu(&graph, &batches).unwrap();
        assert_eq!(outputs.len(), 1);
        assert!(report.tcomp > 0.0);
    }

    #[test]
    fn images_per_second_coherent() {
        let (graph, batches, ctx) = tiny_setup(Backend::GpuSim);
        let (_, report) = run_approx(&graph, &batches, &ctx, Accumulator::Exact).unwrap();
        let ips = report.images_per_second();
        assert!((ips - report.images as f64 / report.total()).abs() < 1e-12);
        let empty = EmulationReport {
            backend: Backend::GpuSim,
            tinit: 0.0,
            tcomp: 0.0,
            profile: PhaseProfile::new(),
            images: 0,
            kernel: "none",
        };
        assert_eq!(empty.images_per_second(), 0.0);
    }

    #[test]
    fn zero_batch_run_reports_zero_throughput() {
        // A zero-image run is legal (zero-batch inputs flow through every
        // backend); the throughput must be an explicit 0.0 even though
        // tinit makes total() positive — not 0/0 or images/0.
        let (graph, _, ctx) = tiny_setup(Backend::CpuGemm);
        let empty = axtensor::Tensor::<f32>::zeros(cifar_input_shape(0));
        let (outputs, report) = run_approx(
            &graph,
            std::slice::from_ref(&empty),
            &ctx,
            Accumulator::Exact,
        )
        .unwrap();
        assert_eq!(report.images, 0);
        assert!(report.total() > 0.0, "tinit must still be charged");
        assert_eq!(report.images_per_second(), 0.0);
        assert!(report.images_per_second().is_finite());
        assert_eq!(outputs[0].shape().n, 0);
        // The rendered report stays well-formed (no NaN -> null surprises
        // in the throughput field).
        assert!(report.to_json().contains("\"images_per_second\": 0.0"));
    }

    #[test]
    fn empty_batch_list_matches_zero_batch_tensor() {
        // The two zero-image shapes — no batches at all, and batches with
        // zero images — must report identically. The modeled GPU backend
        // is deterministic, so the comparison is exact.
        let (graph, _, ctx) = tiny_setup(Backend::GpuSim);
        let (none_out, none) = run_approx(&graph, &[], &ctx, Accumulator::Exact).unwrap();
        let zero = Tensor::<f32>::zeros(cifar_input_shape(0));
        let (zero_out, zeroed) = run_approx(
            &graph,
            std::slice::from_ref(&zero),
            &ctx,
            Accumulator::Exact,
        )
        .unwrap();

        // One output per input batch, shaped-empty where the batch was.
        assert!(none_out.is_empty());
        assert_eq!(zero_out.len(), 1);
        assert_eq!(zero_out[0].shape().n, 0);

        for (report, label) in [(&none, "empty list"), (&zeroed, "zero tensor")] {
            assert_eq!(report.images, 0, "{label}");
            assert_eq!(report.images_per_second(), 0.0, "{label}");
            assert!(report.tinit > 0.0, "{label}: tinit still charged");
        }
        assert_eq!(none.tinit, zeroed.tinit);
        assert_eq!(none.tcomp, zeroed.tcomp);
        for p in Phase::all() {
            assert_eq!(
                none.profile.seconds(p),
                zeroed.profile.seconds(p),
                "phase {p:?} differs between empty-list and zero-tensor"
            );
        }
        assert_eq!(none.to_json(), zeroed.to_json());
    }

    #[test]
    fn empty_batch_list_on_cpu_reports_zero_images() {
        let (graph, _, ctx) = tiny_setup(Backend::CpuGemm);
        let (outputs, report) = run_approx(&graph, &[], &ctx, Accumulator::Exact).unwrap();
        assert!(outputs.is_empty());
        assert_eq!(report.images, 0);
        assert_eq!(report.images_per_second(), 0.0);
        assert_eq!(report.tinit, CPU_INIT_S);
        assert!(report.to_json().contains("\"images\": 0"));
    }

    #[test]
    fn report_json_contains_every_field() {
        let (graph, batches, ctx) = tiny_setup(Backend::GpuSim);
        let (_, report) = run_approx(&graph, &batches, &ctx, Accumulator::Exact).unwrap();
        let doc = report.to_json();
        for needle in [
            "\"schema\": \"tfapprox-session-report/2\"",
            "\"backend\": \"gpu-sim\"",
            "\"kernel\": \"none\"",
            "\"tinit_s\"",
            "\"tcomp_s\"",
            "\"total_s\"",
            "\"images\": 4",
            "\"images_per_second\"",
            "\"phase_seconds\"",
            "\"phase_fractions\"",
            "\"lutlookup\"",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
    }

    #[test]
    fn cpu_gemm_report_names_the_active_kernel() {
        let (graph, batches, ctx) = tiny_setup(Backend::CpuGemm);
        let (_, report) = run_approx(&graph, &batches, &ctx, Accumulator::Exact).unwrap();
        assert_eq!(report.kernel, ctx.kernel().name());
        let needle = format!("\"kernel\": \"{}\"", report.kernel);
        assert!(report.to_json().contains(&needle), "{}", report.to_json());
    }

    #[test]
    fn profile_fractions_form_distribution() {
        let (graph, batches, ctx) = tiny_setup(Backend::GpuSim);
        let (_, report) = run_approx(&graph, &batches, &ctx, Accumulator::Exact).unwrap();
        let sum: f64 = Phase::all()
            .iter()
            .map(|&p| report.profile.fraction(p))
            .sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
