//! Integration tests for the non-ResNet network families and the
//! extension features (dense layers as 1×1 AxConv2D, accumulator models,
//! layer-wise flow).

use axnn::dataset::{top1_agreement, SyntheticCifar10};
use axnn::models::{lenet, VggConfig};
use axnn::resnet::cifar_input_shape;
use std::sync::Arc;
use tfapprox::prelude::*;
use tfapprox::{Accumulator, AxConv2D, EmuContext};

#[test]
fn vgg_transforms_and_tracks_float() {
    let graph = VggConfig::vgg8().build(1).expect("vgg");
    let mult = axmult::catalog::by_name("mul8s_exact").expect("catalog");
    let session = Session::builder()
        .backend(Backend::CpuGemm)
        .multiplier(&mult)
        .compile(&graph)
        .expect("compile");
    assert_eq!(session.replaced_layers(), 6);

    let batch = SyntheticCifar10::new(2).batch_sized(0, 4);
    let float_out = graph.forward(&batch).expect("float");
    let ax_out = session.infer(&batch).expect("approx");
    let agreement = top1_agreement(&float_out, &ax_out);
    assert!(agreement >= 0.75, "agreement {agreement}");
}

#[test]
fn lenet_transforms_and_runs_on_gpusim() {
    let graph = lenet(3).expect("lenet");
    let mult = axmult::catalog::by_name("mul8s_bam_v8h0").expect("catalog");
    let session = Session::builder()
        .backend(Backend::GpuSim)
        .multiplier(&mult)
        .compile(&graph)
        .expect("compile");
    assert_eq!(session.replaced_layers(), 2);
    let batch = SyntheticCifar10::new(4).batch_sized(0, 2);
    let out = session.infer(&batch).expect("infer");
    assert_eq!(out.shape().c, 10);
    assert!(
        session.context().profile().total() > 0.0,
        "modeled time recorded"
    );
}

#[test]
fn graph_summary_reports_whole_resnet() {
    let graph = axnn::resnet::ResNetConfig::with_depth(8)
        .expect("cfg")
        .build(1)
        .expect("graph");
    let summary = graph.summary(cifar_input_shape(1)).expect("summary");
    assert!(summary.contains("Conv2D"));
    assert!(summary.contains("TOTAL"));
    // Total MACs appear in the last line and match mac_count().
    let macs = graph.mac_count(cifar_input_shape(1)).expect("macs");
    assert!(summary.contains(&macs.to_string()));
}

#[test]
fn ax_dense_from_graph_dense_parts() {
    // An approximate dense layer is a 1×1 AxConv2D with a bias: the dense
    // weights are row-major `[in, out]`, already the HWCF layout of a
    // `[1, 1, in, out]` filter. It must track the accurate Dense.
    let dense = axnn::layers::Dense::new(
        16,
        4,
        (0..64).map(|i| (i as f32 - 32.0) / 100.0).collect(),
        vec![0.1; 4],
    );
    let mult = axmult::catalog::by_name("mul8s_exact").expect("catalog");
    let filter = axtensor::Filter::from_vec(
        axtensor::FilterShape::new(1, 1, 16, 4),
        dense.weights().to_vec(),
    )
    .expect("filter");
    let input = axtensor::rng::uniform(axtensor::Shape4::new(2, 1, 1, 16), 5, -1.0, 1.0);
    use axnn::layer::Layer as _;
    let accurate = dense.forward(&[&input]).expect("dense");
    for backend in [Backend::CpuDirect, Backend::CpuGemm, Backend::GpuSim] {
        let ax = AxConv2D::new(
            filter.clone(),
            axtensor::ConvGeometry::default(),
            mult.lut().clone(),
            Arc::new(EmuContext::new(backend)),
        )
        .with_bias(dense.bias().to_vec());
        let approx = ax.convolve(&input).expect("1x1 conv");
        let diff = accurate.max_abs_diff(&approx).expect("shapes");
        assert!(
            diff < 0.1,
            "{backend:?}: quantization noise only, got {diff}"
        );
    }
}

#[test]
fn accumulator_sweep_degrades_gracefully() {
    // Narrowing the accumulator monotonically (weakly) increases the
    // deviation from exact accumulation across a real layer.
    let graph = axnn::resnet::ResNetConfig::with_depth(8)
        .expect("cfg")
        .build(9)
        .expect("graph");
    let mult = axmult::catalog::by_name("mul8s_exact").expect("catalog");
    let batch = SyntheticCifar10::new(11).batch_sized(0, 2);

    let run = |acc: Accumulator| {
        let ctx = Arc::new(EmuContext::new(Backend::CpuGemm));
        let (ax, _) = graph
            .rewrite_convs(|conv| {
                Arc::new(
                    tfapprox::AxConv2D::from_conv2d(conv, &mult, Arc::clone(&ctx))
                        .with_accumulator(acc),
                )
            })
            .expect("rewrite");
        ax.forward(&batch).expect("forward")
    };
    let exact = run(Accumulator::Exact);
    let wide = run(Accumulator::Saturating(32));
    let narrow = run(Accumulator::Saturating(14));
    assert_eq!(exact, wide, "32-bit accumulator is exact at this scale");
    let narrow_diff = exact.max_abs_diff(&narrow).expect("shapes");
    assert!(narrow_diff > 0.0, "14-bit accumulator must deviate");
}
