//! The compiled-session suite: builder validation, thread/tile
//! invariance, `reassign` plan reuse, and the kernel arm a session
//! reports.

use axnn::resnet::{cifar_input_shape, ResNetConfig};
use axtensor::{rng, Tensor};
use proptest::prelude::*;
use std::sync::Arc;
use tfapprox::auto_kernel;
use tfapprox::prelude::*;

fn exact() -> AxMultiplier {
    axmult::catalog::by_name("mul8s_exact").unwrap()
}

fn rough() -> AxMultiplier {
    axmult::catalog::by_name("mul8s_bam_v8h0").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The builder rejects zero chunk sizes and thread counts as
    /// compile-time errors, and accepts every positive value.
    #[test]
    fn builder_validates_chunk_and_threads(chunk in 0usize..5, threads in 0usize..5) {
        let graph = ResNetConfig::with_depth(8).unwrap().build(1).unwrap();
        let result = Session::builder()
            .backend(Backend::CpuGemm)
            .chunk_size(chunk)
            .threads(threads)
            .multiplier(&exact())
            .compile(&graph);
        if chunk == 0 || threads == 0 {
            let err = result.err().map(|e| e.to_string()).unwrap_or_default();
            prop_assert!(
                err.contains("must be positive"),
                "zero accepted or wrong error: {}", err
            );
        } else {
            prop_assert!(result.is_ok());
        }
        // The raw context builders enforce the same contract.
        prop_assert_eq!(
            EmuContext::new(Backend::CpuGemm).with_chunk_size(chunk).is_ok(),
            chunk > 0
        );
        prop_assert_eq!(
            EmuContext::new(Backend::CpuGemm).with_threads(threads).is_ok(),
            threads > 0
        );
    }
}

/// The tiled LUT-GEMM shards output rows across the worker pool; the
/// partition must never leak into the numbers. A whole compiled model run
/// end-to-end at 1, 2 and 4 host threads — and with non-default tile
/// sizes — produces bit-identical outputs.
#[test]
fn cpu_gemm_sessions_are_thread_and_tile_invariant() {
    let graph = ResNetConfig::with_depth(8).unwrap().build(11).unwrap();
    let input: Tensor<f32> = rng::uniform(cifar_input_shape(3), 13, -1.0, 1.0);
    let infer = |threads: usize, tiles: Option<TileConfig>| {
        let mut builder = Session::builder()
            .backend(Backend::CpuGemm)
            .chunk_size(2)
            .threads(threads)
            .multiplier(&rough());
        if let Some(t) = tiles {
            builder = builder.tile_config(t);
        }
        builder.compile(&graph).unwrap().infer(&input).unwrap()
    };
    let reference = infer(1, None);
    for threads in [2, 4] {
        assert_eq!(reference, infer(threads, None), "threads {threads} drifted");
    }
    let odd_tiles = TileConfig::new(5, 17, 3).unwrap();
    for threads in [1, 4] {
        assert_eq!(
            reference,
            infer(threads, Some(odd_tiles)),
            "tile config drifted at threads {threads}"
        );
    }
}

/// `reassign` must not rebuild the plans of unchanged layers. On the
/// modeled GPU backend every plan build records deterministic
/// quantization events into the shared context, so the event counter is
/// an exact witness: compiling ResNet-8 charges 7 plan builds, a
/// reassign that changes one layer to a multiplier of a *different*
/// signedness charges exactly 1 more, and a same-signedness change or a
/// no-op reassign charges none (the plan transplants).
#[test]
fn reassign_keeps_cached_plans_of_unchanged_layers() {
    let graph = ResNetConfig::with_depth(8).unwrap().build(7).unwrap();
    let session = Session::builder()
        .backend(Backend::GpuSim)
        .multiplier(&rough()) // signed
        .compile(&graph)
        .unwrap();
    let after_compile = session.context().events().quant_ops;
    assert!(after_compile > 0, "compile must build 7 plans eagerly");

    // No-op reassign: all layers reused, no new plan builds.
    let same = session.reassign(&Assignment::uniform(rough())).unwrap();
    assert_eq!(same.context().events().quant_ops, after_compile);

    // Same signedness, different LUT: fresh layers but transplanted
    // plans — still no new filter-quantization events.
    let transplanted = session
        .reassign(&Assignment::uniform(rough()).with_layer(0, exact()))
        .unwrap();
    assert_eq!(transplanted.context().events().quant_ops, after_compile);

    // Different signedness (unsigned catalog entry) on one layer: that
    // single plan must rebuild, and only that one.
    let unsigned = axmult::catalog::by_name("mul8u_drum4").unwrap();
    let rebuilt = session
        .reassign(&Assignment::uniform(rough()).with_layer(0, unsigned))
        .unwrap();
    let after_rebuild = rebuilt.context().events().quant_ops;
    assert!(
        after_rebuild > after_compile,
        "changed-signedness layer must rebuild its plan"
    );
    let one_layer_charge = after_rebuild - after_compile;
    assert!(
        one_layer_charge < after_compile,
        "only one of 7 plans may rebuild: charge {one_layer_charge} vs compile {after_compile}"
    );
}

/// A reassigned session computes the same result as a freshly compiled
/// session with the same assignment — plan reuse is an optimization, not
/// a semantic change.
#[test]
fn reassign_bit_identical_to_fresh_compile() {
    let graph = ResNetConfig::with_depth(8).unwrap().build(9).unwrap();
    let assignment = Assignment::uniform(rough()).with_layer(0, exact());
    let input: Tensor<f32> = rng::uniform(cifar_input_shape(2), 33, -1.0, 1.0);

    for backend in [Backend::CpuDirect, Backend::CpuGemm, Backend::GpuSim] {
        let base = Session::builder()
            .backend(backend)
            .multiplier(&rough())
            .compile(&graph)
            .unwrap();
        let reassigned = base.reassign(&assignment).unwrap();
        let fresh = Session::builder()
            .backend(backend)
            .assignment(assignment.clone())
            .compile(&graph)
            .unwrap();
        let a = reassigned.infer(&input).unwrap();
        let b = fresh.infer(&input).unwrap();
        assert_eq!(a, b, "reassign != fresh compile on {backend:?}");
    }
}

/// A narrow accumulator runs on the arm the context selected, so a
/// `Saturating(12)` host-GEMM session must name that arm wherever it
/// reports a kernel — the session, its report and its serving stats —
/// and with no override that arm is [`auto_kernel`]. Only
/// `Saturating(32)`, whose clamp bounds no SIMD lane holds, reports the
/// scalar walker.
#[test]
fn narrow_accumulator_session_reports_the_arm_that_ran() {
    let graph = ResNetConfig::with_depth(8).unwrap().build(5).unwrap();
    let input = rng::uniform(cifar_input_shape(1), 3, -1.0, 1.0);
    let compile = |kernel: Option<KernelKind>, accumulator| {
        let builder = Session::builder()
            .backend(Backend::CpuGemm)
            .accumulator(accumulator)
            .multiplier(&exact());
        match kernel {
            Some(k) => builder.kernel(k),
            None => builder,
        }
        .compile(&graph)
        .unwrap()
    };
    let cases = available_kernels()
        .into_iter()
        .map(|k| (Some(k), Accumulator::Saturating(12), k))
        .chain([
            (None, Accumulator::Saturating(12), auto_kernel()),
            (None, Accumulator::Saturating(32), KernelKind::ScalarTiled),
        ]);
    for (kernel, accumulator, want) in cases {
        let session = compile(kernel, accumulator);
        let tag = format!("{kernel:?} {accumulator:?}");
        assert_eq!(session.kernel(), want, "{tag}");
        let (_, report) = session.infer_batches(std::slice::from_ref(&input)).unwrap();
        assert_eq!(report.kernel, want.name(), "{tag}");
        let engine = ServeEngine::new(Arc::new(session), ServeConfig::new()).unwrap();
        assert_eq!(engine.stats().kernel, want.name(), "{tag}");
    }
}
