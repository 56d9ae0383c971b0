//! Inference-time (folded) batch normalization.

use super::map_spans;
use crate::layer::{check_arity, ExecCtx, Layer};
use crate::NnError;
use axtensor::{Shape4, Tensor};

/// Batch normalization folded into a per-channel affine transform
/// `y = scale[c] · x + shift[c]` — the form it takes in a frozen
/// inference graph.
#[derive(Debug, Clone)]
pub struct BatchNorm {
    scale: Vec<f32>,
    shift: Vec<f32>,
}

impl BatchNorm {
    /// Create from per-channel scale and shift.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    #[must_use]
    pub fn new(scale: Vec<f32>, shift: Vec<f32>) -> Self {
        assert_eq!(scale.len(), shift.len(), "scale/shift length mismatch");
        BatchNorm { scale, shift }
    }

    /// Identity normalization over `c` channels.
    #[must_use]
    pub fn identity(c: usize) -> Self {
        BatchNorm {
            scale: vec![1.0; c],
            shift: vec![0.0; c],
        }
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.scale.len()
    }
}

impl Layer for BatchNorm {
    fn op_name(&self) -> &str {
        "BatchNorm"
    }

    fn output_shape(&self, inputs: &[Shape4]) -> Result<Shape4, NnError> {
        check_arity(self.op_name(), inputs, 1)?;
        if inputs[0].c != self.channels() {
            return Err(NnError::Layer {
                layer: self.op_name().to_owned(),
                message: format!(
                    "input has {} channels, layer has {}",
                    inputs[0].c,
                    self.channels()
                ),
            });
        }
        Ok(inputs[0])
    }

    fn forward(&self, inputs: &[&Tensor<f32>]) -> Result<Tensor<f32>, NnError> {
        self.forward_ctx(inputs, &ExecCtx::default())
    }

    /// The per-channel affine, pixel by pixel, split into spans of whole
    /// pixels on `ctx.pool`.
    fn forward_ctx(
        &self,
        inputs: &[&Tensor<f32>],
        ctx: &ExecCtx<'_>,
    ) -> Result<Tensor<f32>, NnError> {
        let shape = self.output_shape(&inputs.iter().map(|t| t.shape()).collect::<Vec<_>>())?;
        let c = self.channels().max(1);
        let x = inputs[0].as_slice();
        let out = map_spans(ctx.pool, x.len(), c, |span, out| {
            for (o, x) in out.chunks_exact_mut(c).zip(x[span].chunks_exact(c)) {
                for (((o, &v), &scale), &shift) in
                    o.iter_mut().zip(x).zip(&self.scale).zip(&self.shift)
                {
                    *o = scale * v + shift;
                }
            }
        });
        Ok(Tensor::from_vec(shape, out)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_channel_affine() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 1.0, 2.0, 2.0]).unwrap();
        let bn = BatchNorm::new(vec![2.0, -1.0], vec![0.5, 0.0]);
        let out = bn.forward(&[&t]).unwrap();
        assert_eq!(out.as_slice(), &[2.5, -1.0, 4.5, -2.0]);
    }

    #[test]
    fn identity_is_noop() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, -2.0, 3.0, -4.0]).unwrap();
        let out = BatchNorm::identity(2).forward(&[&t]).unwrap();
        assert_eq!(out, t);
    }

    #[test]
    fn channel_mismatch_rejected() {
        let t = Tensor::<f32>::zeros(Shape4::new(1, 1, 1, 3));
        let bn = BatchNorm::identity(2);
        assert!(bn.forward(&[&t]).is_err());
    }
}
