//! Neural-network substrate: layers, graphs, rewriting, ResNets, data.
//!
//! TFApprox plugs its approximate convolution into TensorFlow by *graph
//! rewriting*: "all convolutional layers are identified and replaced by
//! corresponding approximate variants. During this process, the minimum
//! and maximum operators are inserted into the computational path and
//! connected to the approximate layers" (Fig. 1). This crate is the
//! framework side of that story:
//!
//! - [`Layer`]: the operator interface (multi-input forward, shape
//!   inference, MAC counting),
//! - [`layers`]: `Conv2D`, `ReLU`, folded `BatchNorm`, residual `Add`,
//!   pooling, `Dense`, `Softmax`, `Min`/`Max` observers, and the
//!   parameter-free ResNet shortcut,
//! - [`Graph`]: a DAG of named nodes with topological execution and the
//!   [`Graph::rewrite_convs`] transform (the paper's design flow, step 2),
//! - [`resnet`]: the CIFAR-10 ResNet-(6n+2) family of Table I with
//!   deterministic weights and MAC accounting,
//! - [`dataset`]: a synthetic CIFAR-10-shaped dataset (10 000 × 32×32×3,
//!   evaluated "in 10 batches consisting of 1000 images each").
//!
//! # Example
//!
//! ```
//! use axnn::resnet::ResNetConfig;
//!
//! # fn main() -> Result<(), axnn::NnError> {
//! let graph = ResNetConfig::with_depth(8)?.build(42)?;
//! assert_eq!(graph.conv_layer_count(), 7); // the paper's L for ResNet-8
//! # Ok(())
//! # }
//! ```

pub mod dataset;
pub mod graph;
pub mod layer;
pub mod layers;
pub mod models;
pub mod resnet;

mod error;

pub use error::NnError;
pub use graph::{Graph, NodeId};
pub use layer::{ExecCtx, Layer};
