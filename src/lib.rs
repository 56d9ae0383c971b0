//! Umbrella crate for the TFApprox reproduction workspace.
//!
//! This crate exists to host the runnable [examples](https://github.com/example/tfapprox-rs)
//! and cross-crate integration tests; all functionality lives in the member
//! crates, re-exported here for convenience:
//!
//! - [`axcircuit`] — gate-level circuit substrate (netlists, array multipliers).
//! - [`axmult`] — approximate multiplier models, 256×256 LUTs, error metrics.
//! - [`axtensor`] — NHWC 4D tensors, im2col, reference matmul.
//! - [`axquant`] — affine quantization (scale/zero-point) per Eq. 1 of the paper.
//! - [`gpusim`] — simulated CUDA-capable GPU with a texture-cache model.
//! - [`axnn`] — layers, graphs, the CIFAR-10 ResNet family, graph rewriting.
//! - [`tfapprox`] — the paper's contribution: the compiled-session API
//!   (`Session` / `SessionBuilder` / `Assignment` behind
//!   `tfapprox::prelude`), the `AxConv2D` operator, the
//!   prepared-execution engine (`PreparedFilter` plans + the persistent
//!   `WorkerPool`), and the three emulation backends.

pub use axcircuit;
pub use axmult;
pub use axnn;
pub use axquant;
pub use axtensor;
pub use gpusim;
pub use tfapprox;
