//! Element-wise activations.

use super::map_spans;
use crate::layer::{check_arity, ExecCtx, Layer};
use crate::NnError;
use axtensor::{Shape4, Tensor};

/// Rectified linear unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReLU;

impl ReLU {
    /// Create a ReLU layer.
    #[must_use]
    pub fn new() -> Self {
        ReLU
    }
}

impl Layer for ReLU {
    fn op_name(&self) -> &str {
        "ReLU"
    }

    fn output_shape(&self, inputs: &[Shape4]) -> Result<Shape4, NnError> {
        check_arity(self.op_name(), inputs, 1)?;
        Ok(inputs[0])
    }

    fn forward(&self, inputs: &[&Tensor<f32>]) -> Result<Tensor<f32>, NnError> {
        self.forward_ctx(inputs, &ExecCtx::default())
    }

    /// `max(v, 0)` per element, split into spans on `ctx.pool`.
    fn forward_ctx(
        &self,
        inputs: &[&Tensor<f32>],
        ctx: &ExecCtx<'_>,
    ) -> Result<Tensor<f32>, NnError> {
        check_arity(self.op_name(), inputs, 1)?;
        let x = inputs[0].as_slice();
        let out = map_spans(ctx.pool, x.len(), 1, |span, out| {
            for (o, &v) in out.iter_mut().zip(&x[span]) {
                *o = v.max(0.0);
            }
        });
        Ok(Tensor::from_vec(inputs[0].shape(), out)?)
    }
}

/// Channel-wise softmax over the last dimension.
#[derive(Debug, Clone, Copy, Default)]
pub struct Softmax;

impl Softmax {
    /// Create a softmax layer.
    #[must_use]
    pub fn new() -> Self {
        Softmax
    }
}

impl Layer for Softmax {
    fn op_name(&self) -> &str {
        "Softmax"
    }

    fn output_shape(&self, inputs: &[Shape4]) -> Result<Shape4, NnError> {
        check_arity(self.op_name(), inputs, 1)?;
        Ok(inputs[0])
    }

    fn forward(&self, inputs: &[&Tensor<f32>]) -> Result<Tensor<f32>, NnError> {
        check_arity(self.op_name(), inputs, 1)?;
        let x = inputs[0];
        let c = x.shape().c;
        let mut out = x.clone();
        for row in out.as_mut_slice().chunks_mut(c) {
            let peak = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let mut sum = 0f32;
            for v in row.iter_mut() {
                *v = (*v - peak).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axtensor::Shape4;

    #[test]
    fn relu_preserves_shape_and_clamps() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![-1.0, 2.0, -3.0, 4.0]).unwrap();
        let out = ReLU::new().forward(&[&t]).unwrap();
        assert_eq!(out.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t =
            Tensor::from_vec(Shape4::new(2, 1, 1, 3), vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let out = Softmax::new().forward(&[&t]).unwrap();
        for row in out.as_slice().chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(row.windows(2).all(|w| w[0] < w[1])); // monotone inputs
        }
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 1, 2), vec![1000.0, 1001.0]).unwrap();
        let out = Softmax::new().forward(&[&t]).unwrap();
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }
}
