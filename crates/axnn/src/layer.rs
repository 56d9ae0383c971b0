//! The operator interface every graph node implements.

use crate::layers::Conv2D;
use crate::NnError;
use axtensor::{SegmentTable, Shape4, Tensor, WorkerPool};
use std::fmt;

/// What one graph execution lends each operator: the worker pool to
/// split its work on, and the request segments of a fused batch.
///
/// The default is a serial, unsegmented run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecCtx<'a> {
    /// Pool the operator may split its work across (`None`: inline).
    pub pool: Option<&'a WorkerPool>,
    /// Per-request spans of a fused batch (`None`: one request).
    pub segments: Option<&'a SegmentTable>,
}

/// A neural-network operator.
///
/// Layers are stateless at execution time (weights are owned by the layer,
/// activations flow through `forward`). Multi-input operators (residual
/// `Add`, the approximate convolution with its range scalars) receive
/// their inputs in the order the graph edges were declared.
pub trait Layer: fmt::Debug + Send + Sync {
    /// Operator type name (`"Conv2D"`, `"AxConv2D"`, `"ReLU"`, ...).
    fn op_name(&self) -> &str;

    /// Number of inputs the operator consumes.
    fn arity(&self) -> usize {
        1
    }

    /// Infer the output shape from the input shapes.
    ///
    /// # Errors
    ///
    /// Implementations return an error when arity or shapes are invalid.
    fn output_shape(&self, inputs: &[Shape4]) -> Result<Shape4, NnError>;

    /// Execute the operator.
    ///
    /// # Errors
    ///
    /// Implementations return an error when arity or shapes are invalid.
    fn forward(&self, inputs: &[&Tensor<f32>]) -> Result<Tensor<f32>, NnError>;

    /// Execute the operator on a *fused* batch in which `segments` marks
    /// contiguous per-request spans along the batch axis.
    ///
    /// The contract: the output must be **bit-identical** to running
    /// `forward` on each segment alone and concatenating the results
    /// along the batch axis. The default delegates to [`Layer::forward`],
    /// which is correct for every operator whose per-image output depends
    /// only on that image's data (element-wise ops, pooling, folded
    /// batch-norm, softmax, residual adds, plain convolutions). Operators
    /// that reduce or calibrate *across* the batch — the `Min`/`Max`
    /// range observers, and any layer resolving quantization coefficients
    /// from its input — must override this to keep each segment's view
    /// exactly what it would have seen solo.
    ///
    /// # Errors
    ///
    /// As [`Layer::forward`].
    fn forward_segmented(
        &self,
        inputs: &[&Tensor<f32>],
        segments: &SegmentTable,
    ) -> Result<Tensor<f32>, NnError> {
        let _ = segments;
        self.forward(inputs)
    }

    /// Execute the operator under an execution context — the entry point
    /// the graph executor calls.
    ///
    /// The default runs [`Layer::forward_segmented`] when the context
    /// carries segments and [`Layer::forward`] otherwise, on the calling
    /// thread. Operators that split their work across `ctx.pool` override
    /// it, and must produce the same bits at every pool size.
    ///
    /// # Errors
    ///
    /// As [`Layer::forward`].
    fn forward_ctx(
        &self,
        inputs: &[&Tensor<f32>],
        ctx: &ExecCtx<'_>,
    ) -> Result<Tensor<f32>, NnError> {
        match ctx.segments {
            Some(segments) => self.forward_segmented(inputs, segments),
            None => self.forward(inputs),
        }
    }

    /// Multiply-accumulate operations performed for the given input
    /// shapes; 0 for non-arithmetic layers.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures.
    fn mac_count(&self, _inputs: &[Shape4]) -> Result<u64, NnError> {
        Ok(0)
    }

    /// Downcast hook used by the graph-rewrite pass: a standard 2D
    /// convolution exposes itself so it can be replaced by an approximate
    /// variant.
    fn as_conv2d(&self) -> Option<&Conv2D> {
        None
    }
}

/// Check an input slice length against the layer's arity.
///
/// # Errors
///
/// Returns [`NnError::InputArity`] on mismatch.
pub fn check_arity<T>(layer: &str, inputs: &[T], expected: usize) -> Result<(), NnError> {
    if inputs.len() == expected {
        Ok(())
    } else {
        Err(NnError::InputArity {
            layer: layer.to_owned(),
            expected,
            got: inputs.len(),
        })
    }
}
