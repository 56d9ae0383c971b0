//! Cross-kernel differential suite: every member of the LUT-GEMM kernel
//! family this host can execute must be **bit-identical** to the golden
//! untiled [`lut_gemm_reference`] — across matrix shapes (including `K`
//! not divisible by any vector width), tile configurations, worker-pool
//! sizes, segment layouts, every catalog multiplier (signed and
//! unsigned), and all three accumulator models. The forced-scalar escape
//! hatch is exercised by the same sweep: `KernelKind::ScalarTiled` is
//! always in [`available_kernels`].

use axmult::{AxMultiplier, Signedness};
use axquant::{QuantParams, QuantRange, RoundMode};
use axtensor::{rng, FilterShape, Matrix, SegmentTable};
use proptest::prelude::*;
use std::sync::OnceLock;
use tfapprox::kernel::dispatch::{lut_gemm_dispatch, lut_gemm_dispatch_seg};
use tfapprox::kernel::{lut_gemm_reference, lut_gemm_reference_seg, TileConfig};
use tfapprox::{available_kernels, Accumulator, KernelKind, PreparedFilter, WorkerPool};

/// The full multiplier catalog, built once for the whole suite (the
/// circuit-backed entries are expensive to regenerate per proptest case).
fn catalog() -> &'static [AxMultiplier] {
    static CATALOG: OnceLock<Vec<AxMultiplier>> = OnceLock::new();
    CATALOG.get_or_init(|| axmult::catalog().expect("catalog builds"))
}

/// Filter-bank shapes whose patch lengths probe the kernels' blocking
/// edges: `K ∈ {16, 27, 50, 63}` — one multiple of the 16-lane vector
/// width and three deliberate stragglers that force scalar tails.
fn filter_shape(ix: usize, c_out: usize) -> FilterShape {
    match ix {
        0 => FilterShape::new(1, 1, 16, c_out),
        1 => FilterShape::new(3, 3, 3, c_out),
        2 => FilterShape::new(5, 5, 2, c_out),
        _ => FilterShape::new(3, 3, 7, c_out),
    }
}

/// All three accumulator models, each run on every arm: the SIMD arm
/// wraps a `Wrapping` sum once and clamps a `Saturating` lane per tap,
/// and must still match the reference bit for bit.
fn accumulators() -> [Accumulator; 3] {
    [
        Accumulator::Exact,
        Accumulator::Saturating(16),
        Accumulator::Wrapping(12),
    ]
}

/// A deterministic patch matrix covering the full byte range, plus the
/// logical patch sums under the multiplier's signedness.
fn patches_for(rows: usize, k: usize, seed: u64, signedness: Signedness) -> (Matrix<u8>, Vec<i64>) {
    let bytes: Vec<u8> = (0..rows * k)
        .map(|i| ((i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u8)
        .collect();
    let patches = Matrix::from_vec(rows, k, bytes).expect("sized");
    let sums: Vec<i64> = (0..rows)
        .map(|r| {
            patches
                .row(r)
                .iter()
                .map(|&b| match signedness {
                    Signedness::Signed => i64::from(b as i8),
                    Signedness::Unsigned => i64::from(b),
                })
                .sum()
        })
        .collect();
    (patches, sums)
}

fn plan_for(fs: FilterShape, seed: u64) -> PreparedFilter {
    let filter = rng::uniform_filter(fs, seed ^ 5, -0.5, 0.5);
    let filter_q = QuantParams::from_range(-0.5, 0.5, QuantRange::i8(), RoundMode::NearestEven);
    PreparedFilter::from_filter(&filter, &filter_q.into())
}

fn input_q_for(segment: usize) -> QuantParams {
    // Distinct (α, β) per segment so a kernel that mixes up segment
    // epilogues cannot cancel out.
    let span = 1.0 + 0.25 * segment as f32;
    QuantParams::from_range(-span, span, QuantRange::i8(), RoundMode::NearestEven)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Single-segment entry point: every available kernel × every catalog
    /// multiplier × every accumulator model equals the reference. Up to
    /// 200 rows reach several 64-lane blocks, a ragged `rows % 64` tail
    /// and per-thread spans of the widest SIMD arm.
    #[test]
    fn every_kernel_matches_the_reference(
        seed in 0u64..1000,
        rows in 0usize..200,
        shape_ix in 0usize..4,
        c_out in 1usize..6,
        small_tiles in any::<bool>(),
        threads in 1usize..5,
    ) {
        let fs = filter_shape(shape_ix, c_out);
        let plan = plan_for(fs, seed);
        let input_q = input_q_for(0);
        let tiles = if small_tiles {
            TileConfig::new(3, 7, 2).unwrap()
        } else {
            TileConfig::default()
        };
        let pool = WorkerPool::new(threads);
        for mult in catalog() {
            let (patches, sums) = patches_for(rows, fs.patch_len(), seed, mult.lut().signedness());
            for accumulator in accumulators() {
                let reference = lut_gemm_reference(
                    &patches, &sums, &plan, input_q, mult.lut(), accumulator,
                );
                for kernel in available_kernels() {
                    let out = lut_gemm_dispatch(
                        kernel, &patches, &sums, &plan, input_q, mult.lut(), accumulator,
                        tiles, &pool,
                    );
                    prop_assert_eq!(
                        &out, &reference,
                        "{} != reference ({}, {:?}, threads {})",
                        kernel, mult.name(), accumulator, threads
                    );
                }
            }
        }
    }

    /// Segmented entry point: random segment layouts (zero-length
    /// segments included) with per-segment quantization, every kernel ×
    /// every accumulator on a signed and an unsigned catalog multiplier.
    #[test]
    fn every_kernel_matches_the_segmented_reference(
        seed in 0u64..1000,
        counts in proptest::collection::vec(0usize..12, 1..5),
        shape_ix in 0usize..4,
        threads in 1usize..5,
        unsigned in any::<bool>(),
    ) {
        let name = if unsigned { "mul8u_bam_v8h0" } else { "mul8s_bam_v8h0" };
        let mult = catalog().iter().find(|m| m.name() == name).unwrap();
        let fs = filter_shape(shape_ix, 3);
        let plan = plan_for(fs, seed);
        let segments = SegmentTable::from_counts(&counts);
        let seg_q: Vec<QuantParams> = (0..segments.len()).map(input_q_for).collect();
        let (patches, sums) =
            patches_for(segments.total(), fs.patch_len(), seed, mult.lut().signedness());
        let pool = WorkerPool::new(threads);
        for accumulator in accumulators() {
            let reference = lut_gemm_reference_seg(
                &patches, &sums, &plan, &seg_q, &segments, mult.lut(), accumulator,
            );
            for kernel in available_kernels() {
                let out = lut_gemm_dispatch_seg(
                    kernel, &patches, &sums, &plan, &seg_q, &segments, mult.lut(),
                    accumulator, TileConfig::default(), &pool,
                );
                prop_assert_eq!(
                    &out, &reference,
                    "segmented {} != reference ({}, {:?})",
                    kernel, name, accumulator
                );
            }
        }
    }
}

/// The forced-scalar escape hatch is a first-class family member: it is
/// always supported, always listed, and the dispatcher honors it even
/// where a SIMD arm is available.
#[test]
fn forced_scalar_is_always_available() {
    assert!(KernelKind::ScalarTiled.is_supported());
    assert!(available_kernels().contains(&KernelKind::ScalarTiled));
}
