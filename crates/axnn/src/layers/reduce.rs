//! Residual addition and the min/max observer operators of Fig. 1.

use super::map_spans;
use crate::layer::{check_arity, ExecCtx, Layer};
use crate::NnError;
use axtensor::{ops, SegmentTable, Shape4, Tensor, WorkerPool};

/// Reduce each segment of the batch (the whole batch when `ctx` carries
/// no segments) with `bound` — [`ops::min_of`] or [`ops::max_of`] —
/// producing one scalar per segment as an `[S, 1, 1, 1]` tensor.
///
/// An NHWC batch is contiguous per image, so a segment's elements are
/// one contiguous slice — each segment sees exactly the values (and the
/// empty-tensor / NaN semantics) a solo observer over that request
/// would see, which is the bit-identity anchor of batch fusion.
fn observe(
    input: &Tensor<f32>,
    ctx: &ExecCtx<'_>,
    bound: fn(&[f32], Option<&WorkerPool>) -> f32,
) -> Result<Tensor<f32>, NnError> {
    let shape = input.shape();
    let whole = SegmentTable::single(shape.n);
    let segments = ctx.segments.unwrap_or(&whole);
    if segments.total() != shape.n {
        return Err(NnError::SegmentMismatch {
            images: shape.n,
            covered: segments.total(),
        });
    }
    let per = shape.h * shape.w * shape.c;
    let data = input.as_slice();
    let values: Vec<f32> = segments
        .iter()
        .map(|(start, end)| bound(&data[start * per..end * per], ctx.pool))
        .collect();
    Ok(Tensor::from_vec(
        Shape4::new(segments.len(), 1, 1, 1),
        values,
    )?)
}

/// Element-wise residual addition of two tensors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Add;

impl Add {
    /// Create an addition layer.
    #[must_use]
    pub fn new() -> Self {
        Add
    }
}

impl Layer for Add {
    fn op_name(&self) -> &str {
        "Add"
    }

    fn arity(&self) -> usize {
        2
    }

    fn output_shape(&self, inputs: &[Shape4]) -> Result<Shape4, NnError> {
        check_arity(self.op_name(), inputs, 2)?;
        if inputs[0] != inputs[1] {
            return Err(NnError::Tensor(axtensor::TensorError::ShapeMismatch {
                a: inputs[0],
                b: inputs[1],
            }));
        }
        Ok(inputs[0])
    }

    fn forward(&self, inputs: &[&Tensor<f32>]) -> Result<Tensor<f32>, NnError> {
        self.forward_ctx(inputs, &ExecCtx::default())
    }

    /// The element-wise sum, split into spans on `ctx.pool`.
    fn forward_ctx(
        &self,
        inputs: &[&Tensor<f32>],
        ctx: &ExecCtx<'_>,
    ) -> Result<Tensor<f32>, NnError> {
        let shape = self.output_shape(&inputs.iter().map(|t| t.shape()).collect::<Vec<_>>())?;
        let (a, b) = (inputs[0].as_slice(), inputs[1].as_slice());
        let out = map_spans(ctx.pool, a.len(), 1, |span, out| {
            for ((o, &x), &y) in out.iter_mut().zip(&a[span.clone()]).zip(&b[span]) {
                *o = x + y;
            }
        });
        Ok(Tensor::from_vec(shape, out)?)
    }
}

/// A range observer of Fig. 1: [`MinOf`] (`MAX = false`) or [`MaxOf`]
/// (`MAX = true`). The graph transform inserts one of each before every
/// approximate layer; each reduces its input to a `[1, 1, 1, 1]` scalar
/// tensor (one per segment of a fused batch), evaluated once per batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Observer<const MAX: bool>;

/// The `Min` observer.
pub type MinOf = Observer<false>;

/// The `Max` observer, the counterpart of [`MinOf`].
pub type MaxOf = Observer<true>;

impl<const MAX: bool> Observer<MAX> {
    /// Create the observer.
    #[must_use]
    pub fn new() -> Self {
        Observer
    }
}

impl<const MAX: bool> Layer for Observer<MAX> {
    fn op_name(&self) -> &str {
        if MAX {
            "Max"
        } else {
            "Min"
        }
    }

    fn output_shape(&self, inputs: &[Shape4]) -> Result<Shape4, NnError> {
        check_arity(self.op_name(), inputs, 1)?;
        Ok(Shape4::new(1, 1, 1, 1))
    }

    fn forward(&self, inputs: &[&Tensor<f32>]) -> Result<Tensor<f32>, NnError> {
        self.forward_ctx(inputs, &ExecCtx::default())
    }

    fn forward_segmented(
        &self,
        inputs: &[&Tensor<f32>],
        segments: &SegmentTable,
    ) -> Result<Tensor<f32>, NnError> {
        let ctx = ExecCtx {
            segments: Some(segments),
            ..ExecCtx::default()
        };
        self.forward_ctx(inputs, &ctx)
    }

    /// One extreme per segment, as an `[S, 1, 1, 1]` tensor — each
    /// segment observed exactly as a solo batch would be — split into
    /// spans on `ctx.pool`.
    fn forward_ctx(
        &self,
        inputs: &[&Tensor<f32>],
        ctx: &ExecCtx<'_>,
    ) -> Result<Tensor<f32>, NnError> {
        check_arity(self.op_name(), inputs, 1)?;
        observe(inputs[0], ctx, if MAX { ops::max_of } else { ops::min_of })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_two_tensors() {
        let a = Tensor::from_vec(Shape4::new(1, 1, 2, 1), vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(Shape4::new(1, 1, 2, 1), vec![0.5, -2.0]).unwrap();
        let out = Add::new().forward(&[&a, &b]).unwrap();
        assert_eq!(out.as_slice(), &[1.5, 0.0]);
    }

    #[test]
    fn add_rejects_mismatched_shapes() {
        let a = Tensor::<f32>::zeros(Shape4::new(1, 1, 2, 1));
        let b = Tensor::<f32>::zeros(Shape4::new(1, 1, 3, 1));
        assert!(Add::new().forward(&[&a, &b]).is_err());
    }

    #[test]
    fn observers_reduce_to_scalars() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 3, 1), vec![-4.0, 2.0, 9.0]).unwrap();
        let lo = MinOf::new().forward(&[&t]).unwrap();
        let hi = MaxOf::new().forward(&[&t]).unwrap();
        assert_eq!(lo.shape(), Shape4::new(1, 1, 1, 1));
        assert_eq!(lo.as_slice(), &[-4.0]);
        assert_eq!(hi.as_slice(), &[9.0]);
    }

    #[test]
    fn segmented_observers_match_solo_per_segment() {
        // 4 images of 1×2×1; segments 2/0/2 — each segment's scalar must
        // equal a solo observation of that segment, including (0, 0) for
        // the empty one.
        let t = Tensor::from_vec(
            Shape4::new(4, 1, 2, 1),
            vec![1.0, -3.0, 2.5, 0.5, -7.0, 4.0, 0.0, 6.0],
        )
        .unwrap();
        let segs = SegmentTable::from_counts(&[2, 0, 2]);
        let lo = MinOf::new().forward_segmented(&[&t], &segs).unwrap();
        let hi = MaxOf::new().forward_segmented(&[&t], &segs).unwrap();
        assert_eq!(lo.shape(), Shape4::new(3, 1, 1, 1));
        assert_eq!(lo.as_slice(), &[-3.0, 0.0, -7.0]);
        assert_eq!(hi.as_slice(), &[2.5, 0.0, 6.0]);
        // Cross-check against solo forward over each segment slice.
        for (i, (start, end)) in segs.iter().enumerate() {
            if start == end {
                continue;
            }
            let part = t.batch_slice(start, end - start);
            assert_eq!(
                MinOf::new().forward(&[&part]).unwrap().as_slice()[0],
                lo.as_slice()[i]
            );
            assert_eq!(
                MaxOf::new().forward(&[&part]).unwrap().as_slice()[0],
                hi.as_slice()[i]
            );
        }
    }

    #[test]
    fn segmented_observers_propagate_nan_only_within_the_segment() {
        let t = Tensor::from_vec(Shape4::new(2, 1, 1, 1), vec![f32::NAN, 5.0]).unwrap();
        let segs = SegmentTable::from_counts(&[1, 1]);
        let lo = MinOf::new().forward_segmented(&[&t], &segs).unwrap();
        assert!(lo.as_slice()[0].is_nan());
        assert_eq!(lo.as_slice()[1], 5.0);
    }

    #[test]
    fn segmented_observer_rejects_mismatched_table() {
        let t = Tensor::<f32>::zeros(Shape4::new(3, 1, 1, 1));
        let err = MinOf::new()
            .forward_segmented(&[&t], &SegmentTable::from_counts(&[2]))
            .unwrap_err();
        assert!(matches!(err, NnError::SegmentMismatch { .. }));
    }
}
