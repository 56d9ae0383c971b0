//! The cross-backend conformance matrix.
//!
//! One table-driven suite pinning **every** `Backend` × **every** catalog
//! multiplier (signed and unsigned) × **every** accumulator model against
//! a single golden model — `tfapprox::kernel::lut_gemm_reference` chained
//! layer-by-layer over a fixed small graph. Each cell asserts **bit
//! identity**; a failure names the exact (backend, multiplier,
//! accumulator) cell. `CpuGemm` cells run once per LUT-GEMM kernel arm
//! this host can execute, each pinned through `SessionBuilder::kernel`.
//!
//! Two contracts are encoded:
//!
//! - CPU backends (`CpuDirect`, `CpuGemm`) implement the cell's
//!   accumulator model exactly as the reference kernel folds it.
//! - `GpuSim` accumulates in 32-bit float like the paper's kernel and
//!   ignores the accumulator knob, so its golden is always the
//!   `Accumulator::Exact` reference. The fixed graph is sized so every
//!   partial sum is an integer below 2²⁴ — exactly representable in f32 —
//!   which is what makes bit identity (not mere closeness) attainable.

use axmult::{AxMultiplier, Signedness};
use axnn::layers::Conv2D;
use axnn::Graph;
use axquant::{FilterQuantization, QuantParams, QuantRange, RoundMode};
use axtensor::{ops, rng, ConvGeometry, Filter, FilterShape, Shape4, Tensor};
use gpusim::kernels::im2col::{im2col_quant, PatchSumStrategy};
use std::sync::Arc;
use tfapprox::kernel::lut_gemm_reference;
use tfapprox::{
    available_kernels, Accumulator, Backend, KernelKind, PreparedFilter, Session, SessionBuilder,
};

const BACKENDS: [Backend; 3] = [Backend::CpuDirect, Backend::CpuGemm, Backend::GpuSim];

/// One execution path of the matrix: a backend, plus for `CpuGemm` the
/// kernel arm it is pinned to.
#[derive(Debug, Clone, Copy)]
struct Path {
    backend: Backend,
    kernel: Option<KernelKind>,
}

impl Path {
    fn builder(self) -> SessionBuilder {
        let builder = Session::builder().backend(self.backend);
        match self.kernel {
            Some(kernel) => builder.kernel(kernel),
            None => builder,
        }
    }
}

/// Every backend, with `CpuGemm` once per available kernel arm, so the
/// scalar arm stays checked where the automatic choice is a SIMD arm.
fn paths() -> Vec<Path> {
    let mut paths = Vec::new();
    for backend in BACKENDS {
        if backend == Backend::CpuGemm {
            paths.extend(available_kernels().into_iter().map(|k| Path {
                backend,
                kernel: Some(k),
            }));
        } else {
            paths.push(Path {
                backend,
                kernel: None,
            });
        }
    }
    paths
}

/// The accumulator models of the matrix: the exact reference, a
/// saturating width narrow enough that single products clip, and a
/// wrapping width that overflows on realistic sums.
const ACCUMULATORS: [Accumulator; 3] = [
    Accumulator::Exact,
    Accumulator::Saturating(12),
    Accumulator::Wrapping(16),
];

/// The fixed conformance workload: two stacked convolutions (same-padded
/// then strided) with per-channel biases, over a 2-image input.
struct Workload {
    input: Tensor<f32>,
    layers: [(Filter, Vec<f32>, ConvGeometry); 2],
}

fn workload() -> Workload {
    let input = rng::uniform(Shape4::new(2, 5, 5, 2), 42, -1.0, 1.0);
    let f1 = rng::uniform_filter(FilterShape::new(3, 3, 2, 3), 43, -0.5, 0.5);
    let b1 = vec![0.25f32, -0.5, 0.125];
    let f2 = rng::uniform_filter(FilterShape::new(3, 3, 3, 2), 44, -0.5, 0.5);
    let b2 = vec![-0.125f32, 0.0625];
    Workload {
        input,
        layers: [
            (f1, b1, ConvGeometry::default()),
            (f2, b2, ConvGeometry::default().with_stride(2)),
        ],
    }
}

fn graph_of(w: &Workload) -> Graph {
    let mut g = Graph::new();
    let x = g.input();
    let mut node = x;
    for (i, (filter, bias, geom)) in w.layers.iter().enumerate() {
        let conv = Conv2D::new(filter.clone(), *geom).with_bias(bias.clone());
        node = g.add(format!("conv{i}"), Arc::new(conv), &[node]).unwrap();
    }
    g.set_output(node).unwrap();
    g
}

/// One golden layer: quantize with the input's own min/max (exactly what
/// the transformed graph's `Min`/`Max` observers feed the layer), im2col,
/// fold through `lut_gemm_reference` under `accumulator`, add the bias.
fn golden_conv(
    input: &Tensor<f32>,
    filter: &Filter,
    bias: &[f32],
    geom: ConvGeometry,
    mult: &AxMultiplier,
    accumulator: Accumulator,
) -> Tensor<f32> {
    let range = match mult.signedness() {
        Signedness::Signed => QuantRange::i8(),
        Signedness::Unsigned => QuantRange::u8(),
    };
    let (lo, hi) = ops::min_max(input);
    let input_q = QuantParams::from_range(lo, hi, range, RoundMode::NearestEven);
    let (flo, fhi) = ops::min_max_slice(filter.as_slice());
    let filter_q: FilterQuantization =
        QuantParams::from_range(flo, fhi, range, RoundMode::NearestEven).into();
    let plan = PreparedFilter::from_filter(filter, &filter_q);
    let patches = im2col_quant(
        input,
        filter.shape(),
        geom,
        input_q,
        PatchSumStrategy::PrefixScan,
    )
    .unwrap()
    .output;
    let buf = lut_gemm_reference(
        &patches.matrix,
        &patches.patch_sums,
        &plan,
        input_q,
        mult.lut(),
        accumulator,
    );
    let mut out = Tensor::from_vec(patches.out_shape, buf).unwrap();
    let c = out.shape().c;
    for (i, v) in out.as_mut_slice().iter_mut().enumerate() {
        *v += bias[i % c];
    }
    out
}

/// The golden forward pass: the reference kernel chained over the fixed
/// graph's layers.
fn golden_forward(w: &Workload, mult: &AxMultiplier, accumulator: Accumulator) -> Tensor<f32> {
    let mut t = w.input.clone();
    for (filter, bias, geom) in &w.layers {
        t = golden_conv(&t, filter, bias, *geom, mult, accumulator);
    }
    t
}

#[test]
fn conformance_matrix_every_backend_multiplier_accumulator() {
    let catalog = axmult::catalog().expect("catalog builds");
    assert!(
        catalog.iter().any(|m| m.name().starts_with("mul8s"))
            && catalog.iter().any(|m| m.name().starts_with("mul8u")),
        "matrix must cover both signednesses"
    );
    let w = workload();
    let graph = graph_of(&w);
    let paths = paths();
    let mut cells = 0usize;
    for mult in &catalog {
        // GpuSim's golden is accumulator-independent (it always f32
        // -accumulates exactly); compute it once per multiplier and reuse
        // it as the CPU golden of the Exact row.
        let golden_exact = golden_forward(&w, mult, Accumulator::Exact);
        for &accumulator in &ACCUMULATORS {
            let golden_cpu = if accumulator == Accumulator::Exact {
                golden_exact.clone()
            } else {
                golden_forward(&w, mult, accumulator)
            };
            let golden_gpu = &golden_exact;
            for &path in &paths {
                let session = path
                    .builder()
                    .chunk_size(64)
                    .multiplier(mult)
                    .accumulator(accumulator)
                    .compile(&graph)
                    .unwrap_or_else(|e| {
                        panic!(
                            "conformance cell failed to compile: {path:?} \
                             multiplier={} accumulator={accumulator:?}: {e}",
                            mult.name()
                        )
                    });
                let out = session.infer(&w.input).unwrap_or_else(|e| {
                    panic!(
                        "conformance cell failed to run: {path:?} \
                         multiplier={} accumulator={accumulator:?}: {e}",
                        mult.name()
                    )
                });
                // GpuSim accumulates in f32 like the paper's kernel: its
                // golden is always the exact-accumulator reference.
                let expect = if path.backend == Backend::GpuSim {
                    golden_gpu
                } else {
                    &golden_cpu
                };
                assert_eq!(
                    &out,
                    expect,
                    "conformance cell mismatch: {path:?} multiplier={} \
                     accumulator={accumulator:?} (max |diff| = {})",
                    mult.name(),
                    out.max_abs_diff(expect).unwrap_or(f32::NAN)
                );
                cells += 1;
            }
        }
    }
    assert_eq!(
        cells,
        catalog.len() * ACCUMULATORS.len() * paths.len(),
        "every cell of the matrix must have been asserted"
    );
}

/// The fused-batch column of the matrix: `Session::infer_fused` over
/// mixed-size request compositions (0-image and 1-image segments
/// included) must be bit-identical to solo `Session::infer` per request
/// — and, for non-empty requests, to the chained reference-kernel golden
/// — on every backend × accumulator. A small chunk size forces chunk
/// boundaries to intersect segment boundaries inside the fused GEMM.
#[test]
fn conformance_fused_batches_match_solo_and_reference() {
    // Both signednesses plus a rough signed LUT; the full catalog is
    // already pinned per backend by the solo matrix above.
    let mult_names = ["mul8s_exact", "mul8s_bam_v8h0", "mul8u_drum4"];
    let compositions: [&[usize]; 2] = [&[2, 0, 1, 3], &[1, 1]];
    let w = workload();
    let graph = graph_of(&w);
    let paths = paths();
    let mut cells = 0usize;
    for name in mult_names {
        let mult = axmult::catalog::by_name(name).unwrap();
        for &accumulator in &ACCUMULATORS {
            for &path in &paths {
                let session = path
                    .builder()
                    .chunk_size(3)
                    .multiplier(&mult)
                    .accumulator(accumulator)
                    .compile(&graph)
                    .unwrap();
                // GpuSim f32-accumulates exactly; its golden ignores the
                // accumulator knob (same contract as the solo matrix).
                let golden_acc = if path.backend == Backend::GpuSim {
                    Accumulator::Exact
                } else {
                    accumulator
                };
                for sizes in compositions {
                    let requests: Vec<Tensor<f32>> = sizes
                        .iter()
                        .enumerate()
                        .map(|(i, &n)| {
                            rng::uniform(Shape4::new(n, 5, 5, 2), 100 + i as u64, -1.0, 1.0)
                        })
                        .collect();
                    let fused = session.infer_fused(&requests).unwrap();
                    assert_eq!(fused.len(), requests.len());
                    for (i, (req, out)) in requests.iter().zip(&fused).enumerate() {
                        let cell = format!(
                            "{path:?} multiplier={name} \
                             accumulator={accumulator:?} composition={sizes:?} request {i}"
                        );
                        let solo = session.infer(req).unwrap();
                        assert_eq!(out, &solo, "fused differs from solo: {cell}");
                        if req.shape().n > 0 {
                            let mut golden = req.clone();
                            for (filter, bias, geom) in &w.layers {
                                golden =
                                    golden_conv(&golden, filter, bias, *geom, &mult, golden_acc);
                            }
                            assert_eq!(out, &golden, "fused differs from reference: {cell}");
                        }
                        cells += 1;
                    }
                }
            }
        }
    }
    let per_session: usize = compositions.iter().map(|c| c.len()).sum();
    assert_eq!(
        cells,
        mult_names.len() * ACCUMULATORS.len() * paths.len() * per_session,
        "every fused cell must have been asserted"
    );
}

/// The bring-your-own column, part 1: multipliers compiled from gate-level
/// netlists through the full `axcompile` pipeline (sharded over the
/// session `WorkerPool`) are **bit-identical** to the catalog entries
/// built from the same circuits — and the exhaustive 2¹⁶ sweep is cheap
/// enough to run inline in a test suite (the guard keeps it far inside
/// the conformance-stress per-step timeout).
#[test]
fn compiled_multipliers_match_builtin_luts() {
    use std::time::{Duration, Instant};
    use tfapprox::compile::compile_netlist;

    let pool = tfapprox::WorkerPool::new(4);

    let exact = compile_netlist(
        &axcircuit::approx::exact_unsigned(8).unwrap(),
        "conf_test_cmp_exact",
        Signedness::Unsigned,
        &pool,
    )
    .unwrap();
    let builtin = axmult::catalog::by_name("mul8u_exact").unwrap();
    assert_eq!(
        exact.multiplier().lut(),
        builtin.lut(),
        "compiled exact_unsigned(8) must equal the built-in mul8u_exact"
    );

    for k in [2u32, 4, 6] {
        let compiled = compile_netlist(
            &axcircuit::approx::truncated_unsigned(8, k).unwrap(),
            format!("conf_test_cmp_trunc{k}"),
            Signedness::Unsigned,
            &pool,
        )
        .unwrap();
        let builtin = axmult::catalog::by_name(&format!("mul8u_trunc{k}")).unwrap();
        assert_eq!(
            compiled.multiplier().lut(),
            builtin.lut(),
            "compiled truncated_unsigned(8, {k}) must equal mul8u_trunc{k}"
        );
    }

    // Timing guard: a full 2^16-entry compile of the 8×8 broken-array
    // multiplier must stay far below the conformance-stress step timeout
    // (10 minutes in CI) — the sweep is 1024 bit-parallel passes, not
    // 65536 scalar evaluations, and this pins that it stays that way.
    let start = Instant::now();
    let bam = compile_netlist(
        &axcircuit::approx::broken_array_unsigned(8, 8, 0).unwrap(),
        "conf_test_cmp_bam",
        Signedness::Unsigned,
        &pool,
    )
    .unwrap();
    let elapsed = start.elapsed();
    assert_eq!(
        bam.multiplier().lut(),
        axmult::catalog::by_name("mul8u_bam_v8h0").unwrap().lut(),
        "compiled broken_array_unsigned(8, 8, 0) must equal mul8u_bam_v8h0"
    );
    assert!(
        elapsed < Duration::from_secs(60),
        "full 2^16 compile took {elapsed:?} — too slow for the conformance-stress budget"
    );
}

/// The bring-your-own column, part 2: a multiplier that exists in **no**
/// catalog — `truncated_unsigned(8, 3)`, between the built-in trunc2 and
/// trunc4 — compiled, registered, and then driven by *name* through every
/// backend × accumulator cell against the chained reference-kernel
/// golden, through the fused-batch path, and end-to-end through the
/// serving tier (`SessionRegistry` admission + keyed
/// `ServeEngine::submit_to`). Custom multipliers get the exact same
/// conformance contract as built-ins, with zero kernel changes.
#[test]
fn conformance_compiled_multiplier_column() {
    use tfapprox::compile::compile_netlist;
    use tfapprox::{ServeConfig, ServeEngine, SessionRegistry};

    let netlist = axcircuit::approx::truncated_unsigned(8, 3).unwrap();
    let pool = tfapprox::WorkerPool::new(4);
    let compiled = compile_netlist(&netlist, "conf_test_trunc3", Signedness::Unsigned, &pool)
        .expect("trunc3 compiles");
    compiled.register().expect("name is free");
    let mult = axmult::catalog::by_name("conf_test_trunc3").unwrap();
    // The column must not be vacuous: trunc3 is a real approximation.
    assert_ne!(
        mult.lut(),
        axmult::catalog::by_name("mul8u_exact").unwrap().lut(),
        "trunc3 must differ from exact"
    );

    let w = workload();
    let graph = graph_of(&w);
    let fused_sizes: [usize; 3] = [2, 0, 1];
    let requests: Vec<Tensor<f32>> = fused_sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| rng::uniform(Shape4::new(n, 5, 5, 2), 200 + i as u64, -1.0, 1.0))
        .collect();

    let paths = paths();
    let mut cells = 0usize;
    for &accumulator in &ACCUMULATORS {
        for &path in &paths {
            let cell = format!("{path:?} accumulator={accumulator:?}");
            // GpuSim f32-accumulates exactly (same contract as the
            // catalog matrix): its golden ignores the accumulator knob.
            let golden_acc = if path.backend == Backend::GpuSim {
                Accumulator::Exact
            } else {
                accumulator
            };
            let golden = golden_forward(&w, &mult, golden_acc);

            // Solo: the session resolves the multiplier by its
            // registered name, never by value.
            let session = path
                .builder()
                .chunk_size(3)
                .multiplier_named("conf_test_trunc3")
                .accumulator(accumulator)
                .compile(&graph)
                .unwrap_or_else(|e| panic!("compiled cell failed to compile: {cell}: {e}"));
            let out = session.infer(&w.input).unwrap();
            assert_eq!(out, golden, "compiled cell differs from reference: {cell}");

            // Fused: mixed-size micro-batch, bit-identical to solo.
            let fused = session.infer_fused(&requests).unwrap();
            for (i, (req, fused_out)) in requests.iter().zip(&fused).enumerate() {
                let solo = session.infer(req).unwrap();
                assert_eq!(
                    fused_out, &solo,
                    "compiled fused differs from solo: {cell} request {i}"
                );
            }

            // Served: the key installed from this session carries the
            // registered multiplier; the keyed submission path must
            // return the same bits as the golden.
            let registry = Arc::new(SessionRegistry::new(1).unwrap());
            let key = registry
                .install("conf_compiled", Arc::new(session))
                .unwrap();
            assert_eq!(key.multiplier_names(), vec!["conf_test_trunc3"; 2]);
            let engine =
                ServeEngine::with_registry(Arc::clone(&registry), key.clone(), ServeConfig::new())
                    .unwrap();
            let served = engine.infer_to(&key, w.input.clone()).unwrap();
            assert_eq!(served, golden, "served cell differs from reference: {cell}");

            cells += 1;
        }
    }
    assert_eq!(
        cells,
        ACCUMULATORS.len() * paths.len(),
        "every compiled-multiplier cell must have been asserted"
    );
    axmult::registry::unregister("conf_test_trunc3");
}

#[test]
fn narrow_accumulators_actually_deviate_on_this_workload() {
    // The matrix would be vacuous if the narrow models never bit: pin
    // that on the fixed workload both narrow models differ from Exact
    // for the exact multiplier (so the per-cell goldens are distinct).
    let w = workload();
    let mult = axmult::catalog::by_name("mul8s_exact").unwrap();
    let exact = golden_forward(&w, &mult, Accumulator::Exact);
    for accumulator in [Accumulator::Saturating(12), Accumulator::Wrapping(16)] {
        let narrow = golden_forward(&w, &mult, accumulator);
        assert!(
            exact.max_abs_diff(&narrow).unwrap() > 0.0,
            "{accumulator:?} never deviated — widen the matrix's coverage"
        );
    }
}

#[test]
fn matrix_workload_stays_f32_exact_for_the_gpu_golden() {
    // The GpuSim bit-identity argument requires every partial sum to be
    // an integer below 2^24. Bound it from the workload's shape: products
    // are at most 255² and the largest patch length is 3·3·3 taps.
    let w = workload();
    let max_k = w
        .layers
        .iter()
        .map(|(f, _, _)| f.shape().patch_len())
        .max()
        .unwrap();
    let bound = (max_k as i64) * 255 * 255;
    assert!(
        bound < (1i64 << 24),
        "workload too large for exact f32 accumulation: bound {bound}"
    );
}
