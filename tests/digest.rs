//! End-to-end output digests of whole ResNet-8 sessions.
//!
//! The conformance matrix pins the convolutions alone, and perfbench's
//! correctness check compares two sessions that run the same non-conv
//! layers. Neither can see a change in BatchNorm, ReLU, Add or the
//! `Min`/`Max` observers. This suite hashes the f32 bits of complete
//! session outputs and compares them with constants recorded before the
//! forward pass was split across the worker pool: every `CpuGemm` kernel
//! arm under three accumulator models, and `GpuSim`, each through solo
//! `infer` and an unevenly segmented `infer_fused`, at 1 and 2 threads.

use axnn::dataset::SyntheticCifar10;
use axnn::resnet::ResNetConfig;
use axtensor::Tensor;
use tfapprox::prelude::*;

/// Images per solo call: the stage-1 activations of two images
/// (2 × 32 × 32 × 16 values) are the smallest that split at 2 threads.
const IMAGES: usize = 2;
/// Request sizes of the fused call, a zero-image request included.
const SEGMENTS: [usize; 3] = [2, 0, 1];

/// `(solo, fused)` digests under the exact accumulator. `GpuSim` sums in
/// f32, and every partial sum of this model is exact there, so it shares
/// them.
const EXACT: (u64, u64) = (0x90ee_811f_15f8_0162, 0xf9f1_3e99_027d_1521);

/// FNV-1a over the bit patterns of every output value, in order.
fn digest(outputs: &[Tensor<f32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in outputs {
        for v in t.as_slice() {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// `(solo, fused)` digests of one session configuration.
fn run(builder: SessionBuilder) -> (u64, u64) {
    let graph = ResNetConfig::with_depth(8).unwrap().build(17).unwrap();
    let session = builder
        .multiplier_named("mul8s_bam_v8h0")
        .compile(&graph)
        .unwrap();
    let data = SyntheticCifar10::new(23);
    let solo = session.infer(&data.batch_sized(0, IMAGES)).unwrap();
    let requests: Vec<Tensor<f32>> = SEGMENTS
        .iter()
        .enumerate()
        .map(|(i, &n)| data.batch_sized(i + 1, n))
        .collect();
    let fused = session.infer_fused(&requests).unwrap();
    (digest(&[solo]), digest(&fused))
}

/// Every available `CpuGemm` arm at 1 and 2 threads against `want`.
fn check_cpu_gemm(accumulator: Accumulator, want: (u64, u64)) {
    for kernel in available_kernels() {
        for threads in [1, 2] {
            let got = run(Session::builder()
                .backend(Backend::CpuGemm)
                .kernel(kernel)
                .accumulator(accumulator)
                .threads(threads));
            assert_eq!(
                got,
                want,
                "{accumulator:?} on {} at {threads} threads: got ({:#x}, {:#x})",
                kernel.name(),
                got.0,
                got.1
            );
        }
    }
}

#[test]
fn cpu_gemm_exact_outputs_match_the_recorded_digests() {
    check_cpu_gemm(Accumulator::Exact, EXACT);
}

#[test]
fn cpu_gemm_saturating_outputs_match_the_recorded_digests() {
    check_cpu_gemm(
        Accumulator::Saturating(12),
        (0x70aa_7559_65f2_1e65, 0x3a1a_5279_5949_fc01),
    );
}

#[test]
fn cpu_gemm_wrapping_outputs_match_the_recorded_digests() {
    check_cpu_gemm(
        Accumulator::Wrapping(16),
        (0xe07e_1ef7_3117_46ff, 0x6ee2_65eb_5a33_9d01),
    );
}

#[test]
fn gpusim_outputs_match_the_recorded_digests() {
    for threads in [1, 2] {
        let got = run(Session::builder().backend(Backend::GpuSim).threads(threads));
        assert_eq!(
            got, EXACT,
            "GpuSim at {threads} threads: got ({:#x}, {:#x})",
            got.0, got.1
        );
    }
}
