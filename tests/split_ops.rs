//! The ops split across the worker pool give the serial bytes.
//!
//! BatchNorm, ReLU, Add, the `Min`/`Max` observers (solo and segmented)
//! and the quantizing im2col cut their work into spans on the pool. Each
//! is checked here at pools of 1, 2 and 3 threads, on tensors above and
//! below the span grain, against its serial run; the lane-parallel
//! observers are also checked against the serial `ops::min_max_slice`,
//! including its NaN rule and the sign of a zero extreme.

use axnn::layers::{Add, BatchNorm, MaxOf, MinOf, ReLU};
use axnn::{ExecCtx, Layer};
use axquant::{QuantParams, QuantRange, RoundMode};
use axtensor::pool::SPAN_GRAIN;
use axtensor::WorkerPool;
use axtensor::{ops, rng, ConvGeometry, FilterShape, Padding, SegmentTable, Shape4, Tensor};
use gpusim::{im2col_quant, im2col_quant_on, PatchSumStrategy};
use proptest::prelude::*;
use std::sync::Arc;

fn pools() -> Vec<WorkerPool> {
    [1, 2, 3].into_iter().map(WorkerPool::new).collect()
}

fn bits(t: &Tensor<f32>) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A value stream with many signed zeros: `mode` 0 is non-negative, 1
/// non-positive, 2 mixed, 3 zeros only.
fn values(len: usize, seed: u64, mode: u8) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let zero = if state & (1 << 40) == 0 { 0.0 } else { -0.0 };
            let v = ((state >> 8) % 1000) as f32 / 100.0;
            match (mode, state % 4) {
                (3, _) | (_, 0) => zero,
                (0, _) => v,
                (1, _) => -v,
                _ => v - 5.0,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `min_of` / `max_of` equal the halves of the serial spec, bit for
    /// bit, at every pool size: lengths cross the 16-lane and the span
    /// boundaries, zeros of both signs mix, and a NaN lands anywhere.
    #[test]
    fn observers_match_the_serial_spec(
        len in 0usize..4 * SPAN_GRAIN,
        seed in 0u64..u64::MAX,
        mode in 0u8..4,
        nan_at in 0usize..8 * SPAN_GRAIN,
    ) {
        let mut s = values(len, seed, mode);
        if nan_at < len {
            s[nan_at] = f32::NAN;
        }
        let (lo, hi) = ops::min_max_slice(&s);
        let pools = pools();
        for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
            prop_assert_eq!(ops::min_of(&s, pool).to_bits(), lo.to_bits());
            prop_assert_eq!(ops::max_of(&s, pool).to_bits(), hi.to_bits());
        }
    }
}

#[test]
fn a_zero_extreme_is_the_first_zero_in_scan_order() {
    let min = |s: &[f32]| ops::min_of(s, None).to_bits();
    assert_eq!(min(&[1.0, -0.0, 0.0]), (-0.0f32).to_bits());
    assert_eq!(min(&[-0.0, 0.0]), (-0.0f32).to_bits());
    assert_eq!(min(&[0.0, -0.0]), 0.0f32.to_bits());
    assert_eq!(
        ops::max_of(&[-1.0, 0.0, -0.0], None).to_bits(),
        0.0f32.to_bits()
    );
    // Across lanes: the first zero is in lane 5, an earlier lane's zero
    // comes later in scan order.
    let mut s = vec![1.0f32; 40];
    s[5] = -0.0;
    s[16] = 0.0;
    assert_eq!(min(&s), (-0.0f32).to_bits());
    // Across spans: the first zero sits in the second of three spans,
    // a later one of the other sign in the third.
    let mut s = vec![1.0f32; 3 * SPAN_GRAIN];
    s[SPAN_GRAIN + 7] = -0.0;
    s[2 * SPAN_GRAIN + 5] = 0.0;
    let pool = WorkerPool::new(3);
    assert_eq!(ops::min_of(&s, Some(&pool)).to_bits(), (-0.0f32).to_bits());
    assert_eq!(ops::min_max_slice(&s).0.to_bits(), (-0.0f32).to_bits());
    assert_eq!(ops::min_of(&[], Some(&pool)), 0.0);
    assert!(ops::max_of(&[1.0, f32::NAN], None).is_nan());
}

/// A layer and its inputs.
type Case<'a> = (Arc<dyn Layer>, Vec<&'a Tensor<f32>>);

/// Run `layer` serially, then on every pool, and compare the bytes.
fn assert_pool_invariant(
    layer: &dyn Layer,
    inputs: &[&Tensor<f32>],
    segments: Option<&SegmentTable>,
) {
    let serial = layer
        .forward_ctx(
            inputs,
            &ExecCtx {
                pool: None,
                segments,
            },
        )
        .unwrap();
    for pool in &pools() {
        let ctx = ExecCtx {
            pool: Some(pool),
            segments,
        };
        let got = layer.forward_ctx(inputs, &ctx).unwrap();
        assert_eq!(got.shape(), serial.shape());
        assert_eq!(
            bits(&got),
            bits(&serial),
            "{} drifted at {} threads",
            layer.op_name(),
            pool.threads()
        );
    }
}

#[test]
fn split_layers_give_the_serial_bytes() {
    // 3 × 32 × 32 × 16 = 3 grains: 3 spans at 3 threads. 1 × 8 × 8 × 16
    // is under the grain and runs inline.
    for (shape, seed) in [
        (Shape4::new(3, 32, 32, 16), 1),
        (Shape4::new(1, 8, 8, 16), 2),
    ] {
        let a = rng::uniform(shape, seed, -1.0, 1.0);
        let b = rng::uniform(shape, seed + 10, -1.0, 1.0);
        let c = shape.c;
        let bn = BatchNorm::new(
            (0..c).map(|i| 0.5 + i as f32 / 7.0).collect(),
            (0..c).map(|i| i as f32 / 3.0 - 2.0).collect(),
        );
        let layers: Vec<Case<'_>> = vec![
            (Arc::new(bn), vec![&a]),
            (Arc::new(ReLU::new()), vec![&a]),
            (Arc::new(Add::new()), vec![&a, &b]),
            (Arc::new(MinOf::new()), vec![&a]),
            (Arc::new(MaxOf::new()), vec![&a]),
        ];
        for (layer, inputs) in &layers {
            assert_pool_invariant(layer.as_ref(), inputs, None);
            // The unsplit `forward` is the same function.
            assert_eq!(
                bits(&layer.forward(inputs).unwrap()),
                bits(&layer.forward_ctx(inputs, &ExecCtx::default()).unwrap())
            );
        }
        let segments = if shape.n == 3 {
            SegmentTable::from_counts(&[2, 0, 1])
        } else {
            SegmentTable::from_counts(&[0, 1])
        };
        for observer in [&layers[3].0, &layers[4].0] {
            assert_pool_invariant(observer.as_ref(), &[&a], Some(&segments));
        }
    }
}

#[test]
fn pooled_im2col_gives_the_serial_patches_sums_and_events() {
    let q = QuantParams::from_range(-1.0, 1.0, QuantRange::i8(), RoundMode::NearestEven);
    let cases = [
        // Quantize pass above the grain (32 Ki inputs), patch rows too.
        (
            Shape4::new(2, 32, 32, 16),
            FilterShape::new(3, 3, 16, 8),
            ConvGeometry::default(),
        ),
        // Quantize pass under the grain, patch rows above it.
        (
            Shape4::new(4, 16, 16, 8),
            FilterShape::new(3, 3, 8, 4),
            ConvGeometry::default(),
        ),
        // Strided VALID geometry, both passes under the grain.
        (
            Shape4::new(1, 9, 9, 3),
            FilterShape::new(3, 3, 3, 2),
            ConvGeometry::default()
                .with_stride(2)
                .with_padding(Padding::Valid),
        ),
    ];
    for (i, (shape, filter, geom)) in cases.into_iter().enumerate() {
        let input = rng::uniform(shape, 40 + i as u64, -1.2, 1.2);
        for strategy in [
            PatchSumStrategy::PrefixScan,
            PatchSumStrategy::PerPatchThread,
        ] {
            let serial = im2col_quant(&input, filter, geom, q, strategy).unwrap();
            for pool in &pools() {
                let got = im2col_quant_on(&input, filter, geom, q, strategy, Some(pool)).unwrap();
                let tag = format!("case {i}, {strategy:?}, {} threads", pool.threads());
                assert_eq!(got.output.matrix, serial.output.matrix, "{tag}");
                assert_eq!(got.output.patch_sums, serial.output.patch_sums, "{tag}");
                assert_eq!(got.output.out_shape, serial.output.out_shape, "{tag}");
                assert_eq!(got.events, serial.events, "{tag}");
            }
        }
    }
}
